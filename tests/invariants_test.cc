// Tests for the policy invariant auditor (src/policy/invariants.h).
//
// Positive: with auditing on (the default), randomized share vectors across
// every policy kind and both platforms run 100 control periods without a
// single violation.  Negative: deliberately broken policy behavior — an
// over-allocating redistribution, a share-order inversion, off-grid or
// too-many-level translations, priority inversions, a corrupted min-funding
// split — is caught.

#include "src/policy/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/policy/frequency_shares.h"
#include "src/policy/min_funding.h"
#include "src/policy/power_shares.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

constexpr const char* kProfiles[] = {"gcc",     "leela", "cactusBSSN", "cam4",
                                     "cpuburn", "lbm",   "povray",     "exchange2"};

struct Rig {
  explicit Rig(PlatformSpec spec) : pkg(std::move(spec)), msr(&pkg) {}

  void AddApp(const std::string& profile, double shares, bool hp = false) {
    const int cpu = static_cast<int>(procs.size());
    procs.push_back(std::make_unique<Process>(GetProfile(profile), 100 + cpu));
    pkg.AttachWork(cpu, procs.back().get());
    apps.push_back(ManagedApp{.name = profile,
                              .cpu = cpu,
                              .shares = shares,
                              .high_priority = hp,
                              .baseline_ips = GetProfile(profile).NominalIps(Mhz{3000})});
  }

  void Run(PowerDaemon* daemon, Seconds seconds) {
    Simulator sim(&pkg);
    sim.AddPeriodic(daemon->config().period_s, [daemon](Seconds) { daemon->Step(); });
    sim.Run(seconds);
  }

  Package pkg;
  MsrFile msr;
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> apps;
};

std::vector<ManagedApp> MakeApps(const std::vector<double>& shares,
                                 const std::vector<bool>& high_priority = {}) {
  std::vector<ManagedApp> apps;
  for (size_t i = 0; i < shares.size(); i++) {
    apps.push_back(ManagedApp{.name = "app" + std::to_string(i),
                              .cpu = static_cast<int>(i),
                              .shares = shares[i],
                              .high_priority = high_priority.empty() ? false : high_priority[i],
                              .baseline_ips = Ips{2.0e9}});
  }
  return apps;
}

TelemetrySample MakeSample(int num_cores, Watts pkg_w, bool per_core_power) {
  TelemetrySample s;
  s.t = Seconds{1.0};
  s.dt = Seconds{1.0};
  s.pkg_w = pkg_w;
  for (int i = 0; i < num_cores; i++) {
    CoreTelemetry ct;
    ct.cpu = i;
    ct.online = true;
    ct.active_mhz = Mhz{2000.0};
    ct.busy = 1.0;
    ct.ips = Ips{2.0e9};
    if (per_core_power) {
      ct.core_w = Watts{4.0};
    }
    s.cores.push_back(ct);
  }
  return s;
}

// --- Randomized audited daemon runs -----------------------------------------

struct RunCase {
  PolicyKind kind;
  bool ryzen;
  bool hwp_hints;
};

std::string RunCaseName(const ::testing::TestParamInfo<RunCase>& info) {
  std::string name = PolicyKindName(info.param.kind);
  std::replace(name.begin(), name.end(), '-', '_');
  name += info.param.ryzen ? "_ryzen" : "_skylake";
  if (info.param.hwp_hints) {
    name += "_hwp";
  }
  return name;
}

class AuditedDaemonRun : public ::testing::TestWithParam<RunCase> {};

TEST_P(AuditedDaemonRun, InvariantsHoldOverRandomizedRuns) {
  const RunCase c = GetParam();
  for (const uint64_t seed : {1u, 7u, 23u}) {
    std::mt19937_64 rng(seed);
    const PlatformSpec spec = c.ryzen ? Ryzen1700X() : SkylakeXeon4114();
    Rig rig(spec);

    std::uniform_int_distribution<int> num_apps_dist(3, std::min(8, spec.num_cores));
    std::uniform_real_distribution<double> share_dist(1.0, 100.0);
    const int n = num_apps_dist(rng);
    for (int i = 0; i < n; i++) {
      rig.AddApp(kProfiles[rng() % std::size(kProfiles)], share_dist(rng),
                 /*hp=*/rng() % 2 == 0);
    }

    std::uniform_real_distribution<double> limit_dist(25.0, 60.0);
    DaemonConfig dcfg;
    dcfg.kind = c.kind;
    dcfg.power_limit_w = Watts{limit_dist(rng)};
    dcfg.use_hwp_hints = c.hwp_hints;
    PowerDaemon daemon(&rig.msr, rig.apps, dcfg);
    // Auditing is on by default; violations abort, so completing the run is
    // itself the assertion.
    ASSERT_NE(daemon.auditor(), nullptr);
    daemon.Start();
    rig.Run(&daemon, Seconds{60.0});
    // A runtime limit change must not break conservation tracking.
    daemon.SetPowerLimit(Watts{limit_dist(rng)});
    rig.Run(&daemon, Seconds{40.0});

    EXPECT_EQ(daemon.auditor()->violation_count(), 0);
    EXPECT_GE(daemon.metrics().rows().size(), 95u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AuditedDaemonRun,
    ::testing::Values(RunCase{PolicyKind::kPriority, false, false},
                      RunCase{PolicyKind::kPriority, true, false},
                      RunCase{PolicyKind::kPriority, false, true},
                      RunCase{PolicyKind::kFrequencyShares, false, false},
                      RunCase{PolicyKind::kFrequencyShares, true, false},
                      RunCase{PolicyKind::kFrequencyShares, false, true},
                      RunCase{PolicyKind::kPerformanceShares, false, false},
                      RunCase{PolicyKind::kPerformanceShares, true, false},
                      RunCase{PolicyKind::kPowerShares, true, false},
                      RunCase{PolicyKind::kPowerShares, true, true}),
    RunCaseName);

// --- Negative: broken share-policy behavior ----------------------------------

TEST(PolicyAuditorNegative, OverAllocationWhileOverLimitCaught) {
  const PolicyPlatform p;  // 10 cores, 85 W, core power in [1, 9] W.
  PolicyAuditor auditor(p, /*max_simultaneous_pstates=*/0, {.fatal = false});
  PowerShares policy(p);
  const std::vector<ManagedApp> apps = MakeApps({10.0, 20.0, 30.0, 40.0});
  const Watts limit{40.0};

  auditor.CheckInitialDistribution(&policy, apps, limit,
                                   policy.InitialDistribution(apps, limit));
  ASSERT_EQ(auditor.violation_count(), 0);

  // Broken redistribution: the policy believes there is ~2 W of headroom
  // and grows its watt allocations, while the package actually sits 5 W
  // over the limit.  Growing the total toward a breached limit is exactly
  // the divergence the conservation invariant forbids.
  const std::vector<Mhz> grown =
      policy.Redistribute(apps, MakeSample(p.num_cores, limit - Watts{2.0}, true), limit);
  auditor.CheckRedistribution(&policy, apps, MakeSample(p.num_cores, limit + Watts{5.0}, true),
                              limit, grown);
  ASSERT_GE(auditor.violation_count(), 1);
  EXPECT_NE(auditor.violations()[0].message.find("conservation"), std::string::npos);
}

TEST(PolicyAuditorNegative, ShareMonotonicityInversionCaught) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  FrequencyShares policy(p);
  std::vector<ManagedApp> apps = MakeApps({90.0, 10.0});
  const std::vector<Mhz> targets = policy.InitialDistribution(apps, Watts{45.0});

  // The policy allocated for 90-vs-10 shares; claim the shares were the
  // other way around, so the 90-share app now holds the smaller target.
  std::swap(apps[0].shares, apps[1].shares);
  auditor.CheckInitialDistribution(&policy, apps, Watts{45.0}, targets);
  ASSERT_GE(auditor.violation_count(), 1);
  EXPECT_NE(auditor.violations()[0].message.find("monotonicity"), std::string::npos);
}

// A custom policy that asks for more than the platform can deliver; the
// generic target checks apply even though its native domain is unknown.
class RunawayPolicy : public ShareResource {
 public:
  std::string Name() const override { return "runaway"; }
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts /*limit_w*/) override {
    return std::vector<Mhz>(apps.size(), Mhz{9999.0});
  }
  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps,
                                const TelemetrySample& /*sample*/, Watts /*limit_w*/) override {
    return std::vector<Mhz>(apps.size(), Mhz{9999.0});
  }
};

TEST(PolicyAuditorNegative, AuditedPolicyCatchesRunawayTargets) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  AuditedPolicy audited(std::make_unique<RunawayPolicy>(), &auditor);
  const std::vector<ManagedApp> apps = MakeApps({1.0, 1.0});
  audited.InitialDistribution(apps, Watts{45.0});
  EXPECT_GE(auditor.violation_count(), 2);  // One per app above its ceiling.
}

TEST(PolicyAuditorDeathTest, DaemonAbortsOnBrokenCustomPolicy) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  PowerDaemon daemon(&rig.msr, rig.apps, {.power_limit_w = Watts{45.0}},
                     std::make_unique<RunawayPolicy>());
  EXPECT_DEATH(daemon.Start(), "policy invariant violated");
}

// --- Negative: translation ----------------------------------------------------

TEST(PolicyAuditorNegative, OffGridTranslationCaught) {
  const PolicyPlatform p;  // 800-3000 MHz, 100 MHz grid.
  PolicyAuditor auditor(p, 0, {.fatal = false});
  auditor.CheckTranslation({Mhz{1250.0}});  // 450 MHz above the 800 MHz anchor.
  ASSERT_EQ(auditor.violation_count(), 1);
  EXPECT_NE(auditor.violations()[0].message.find("grid"), std::string::npos);

  auditor.ClearViolations();
  auditor.CheckTranslation({Mhz{1200.0}, Mhz{800.0}, Mhz{3000.0}});
  EXPECT_EQ(auditor.violation_count(), 0);
}

TEST(PolicyAuditorNegative, SimultaneousPstateLimitCaught) {
  PolicyPlatform p;
  p.min_mhz = Mhz{800.0};
  p.max_mhz = Mhz{3800.0};
  p.step_mhz = Mhz{25.0};  // Ryzen grid.
  PolicyAuditor auditor(p, /*max_simultaneous_pstates=*/3, {.fatal = false});

  auditor.CheckTranslation({Mhz{1025.0}, Mhz{1550.0}, Mhz{2075.0}, Mhz{2075.0}});  // 3 distinct: fine.
  EXPECT_EQ(auditor.violation_count(), 0);

  auditor.CheckTranslation({Mhz{1025.0}, Mhz{1550.0}, Mhz{2075.0}, Mhz{2600.0}});  // 4 distinct.
  ASSERT_EQ(auditor.violation_count(), 1);
  EXPECT_NE(auditor.violations()[0].message.find("simultaneous"), std::string::npos);
}

TEST(PolicyAuditorNegative, OutOfRangeTranslationCaught) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  auditor.CheckTranslation({Mhz{700.0}});  // Below the 800 MHz floor.
  EXPECT_EQ(auditor.violation_count(), 1);
  auditor.CheckTranslation({Mhz{3100.0}});  // Above the 3000 MHz ceiling.
  EXPECT_EQ(auditor.violation_count(), 2);
}

// --- Negative: priority policy ------------------------------------------------

TEST(PolicyAuditorNegative, PriorityInversionCaught) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  const std::vector<ManagedApp> apps = MakeApps({1.0, 1.0}, {true, false});
  const PriorityPolicy policy(p, PriorityPolicy::Options{});
  auditor.CheckRedistribution(&policy, apps, MakeSample(p.num_cores, Watts{45.0}, false),
                              Watts{45.0}, {Mhz{1000.0}, Mhz{2000.0}});
  ASSERT_GE(auditor.violation_count(), 1);
  EXPECT_NE(auditor.violations()[0].message.find("inversion"), std::string::npos);
}

TEST(PolicyAuditorNegative, StoppedHighPriorityAppCaught) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  const std::vector<ManagedApp> apps = MakeApps({1.0, 1.0}, {true, false});
  const PriorityPolicy policy(p, PriorityPolicy::Options{});
  auditor.CheckRedistribution(&policy, apps, MakeSample(p.num_cores, Watts{45.0}, false),
                              Watts{45.0}, {PriorityPolicy::kStopped, Mhz{1500.0}});
  EXPECT_GE(auditor.violation_count(), 1);
}

TEST(PolicyAuditorNegative, StopWithStarvationDisabledCaught) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  const std::vector<ManagedApp> apps = MakeApps({1.0, 1.0}, {true, false});
  const PriorityPolicy policy(p, {.starve_lp = false});
  auditor.CheckRedistribution(&policy, apps, MakeSample(p.num_cores, Watts{45.0}, false),
                              Watts{45.0}, {Mhz{2000.0}, PriorityPolicy::kStopped});
  EXPECT_GE(auditor.violation_count(), 1);
}

TEST(PolicyAuditorNegative, PriorityInitialDistributionChecked) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  const std::vector<ManagedApp> apps = MakeApps({1.0, 1.0}, {true, false});
  const PriorityPolicy policy(p, PriorityPolicy::Options{});

  // Clean: HP at its ceiling, LP stopped (starvation mode).
  auditor.CheckInitialDistribution(&policy, apps, Watts{45.0},
                                   {p.max_mhz, PriorityPolicy::kStopped});
  EXPECT_EQ(auditor.violation_count(), 0);

  // Broken: HP starting below its ceiling.
  auditor.CheckInitialDistribution(&policy, apps, Watts{45.0},
                                   {Mhz{2000.0}, PriorityPolicy::kStopped});
  EXPECT_GE(auditor.violation_count(), 1);
}

// A priority policy that runs its LP app above its HP app: the decorator
// audits it like any other policy.
class InvertedPriorityPolicy : public PriorityPolicy {
 public:
  using PriorityPolicy::PriorityPolicy;
  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& /*apps*/,
                                const TelemetrySample& /*sample*/, Watts /*limit_w*/) override {
    return {Mhz{1000.0}, Mhz{2000.0}};  // HP app first, LP app second.
  }
};

TEST(PolicyAuditorNegative, AuditedPolicyCatchesPriorityInversion) {
  const PolicyPlatform p;
  PolicyAuditor auditor(p, 0, {.fatal = false});
  AuditedPolicy audited(std::make_unique<InvertedPriorityPolicy>(p, PriorityPolicy::Options{}),
                        &auditor);
  const std::vector<ManagedApp> apps = MakeApps({1.0, 1.0}, {true, false});
  audited.InitialDistribution(apps, Watts{45.0});
  EXPECT_EQ(auditor.violation_count(), 0);
  audited.Redistribute(apps, MakeSample(p.num_cores, Watts{45.0}, false), Watts{45.0});
  ASSERT_GE(auditor.violation_count(), 1);
  EXPECT_NE(auditor.violations()[0].message.find("inversion"), std::string::npos);
}

// --- Min-funding split audits -------------------------------------------------

TEST(MinFundingAudit, RandomizedSplitsTerminateInBounds) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int> n_dist(1, 8);
  std::uniform_real_distribution<double> share_dist(0.1, 100.0);
  std::uniform_real_distribution<double> min_dist(0.0, 5.0);
  std::uniform_real_distribution<double> span_dist(0.0, 10.0);
  std::uniform_real_distribution<double> total_dist(-5.0, 80.0);
  std::uniform_real_distribution<double> delta_dist(-25.0, 25.0);

  for (int iter = 0; iter < 500; iter++) {
    const int n = n_dist(rng);
    std::vector<ShareRequest> req;
    std::vector<double> current;
    for (int i = 0; i < n; i++) {
      const double lo = min_dist(rng);
      req.push_back(ShareRequest{
          .shares = share_dist(rng), .minimum = lo, .maximum = lo + span_dist(rng)});
      std::uniform_real_distribution<double> cur_dist(req.back().minimum, req.back().maximum);
      current.push_back(cur_dist(rng));
    }
    const double total = total_dist(rng);
    // DistributeProportional/DistributeDelta run the same audits internally
    // as fatal postconditions; re-running them here asserts cleanliness
    // without depending on that wiring.
    const std::vector<double> prop = DistributeProportional(total, req);
    EXPECT_TRUE(AuditProportionalSplit(total, req, prop).empty()) << "iter " << iter;

    const double delta = delta_dist(rng);
    const std::vector<double> stepped = DistributeDelta(delta, current, req);
    EXPECT_TRUE(AuditDeltaSplit(delta, current, req, stepped).empty()) << "iter " << iter;
  }
}

TEST(MinFundingAudit, OverAllocatedWattCaught) {
  const std::vector<ShareRequest> req(5, ShareRequest{.shares = 1.0, .minimum = 1.0,
                                                      .maximum = 9.0});
  std::vector<double> alloc = DistributeProportional(25.0, req);
  ASSERT_TRUE(AuditProportionalSplit(25.0, req, alloc).empty());

  alloc[0] += 1.0;  // Conjure one watt out of thin air.
  const std::vector<std::string> violations = AuditProportionalSplit(25.0, req, alloc);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("sum"), std::string::npos);
}

TEST(MinFundingAudit, OutOfBoundsAllocationCaught) {
  const std::vector<ShareRequest> req(3, ShareRequest{.shares = 1.0, .minimum = 1.0,
                                                      .maximum = 9.0});
  std::vector<double> alloc = DistributeProportional(15.0, req);
  alloc[1] = 0.25;  // Below its 1 W minimum (non-negativity floor).
  EXPECT_FALSE(AuditProportionalSplit(15.0, req, alloc).empty());
}

TEST(MinFundingAudit, DeltaMovedAgainstDirectionCaught) {
  const std::vector<ShareRequest> req(2, ShareRequest{.shares = 1.0, .minimum = 1.0,
                                                      .maximum = 9.0});
  const std::vector<double> current = {5.0, 5.0};
  std::vector<double> alloc = DistributeDelta(2.0, current, req);
  ASSERT_TRUE(AuditDeltaSplit(2.0, current, req, alloc).empty());

  alloc[0] = 4.0;  // An entry shrank while the delta was positive.
  EXPECT_FALSE(AuditDeltaSplit(2.0, current, req, alloc).empty());
}

TEST(MinFundingAudit, UnabsorbedDeltaCaught) {
  const std::vector<ShareRequest> req(2, ShareRequest{.shares = 1.0, .minimum = 1.0,
                                                      .maximum = 9.0});
  const std::vector<double> current = {5.0, 5.0};
  // Claim a +4 W delta was applied but hand back the unchanged allocations:
  // nothing is saturated, so the delta cannot have vanished legitimately.
  EXPECT_FALSE(AuditDeltaSplit(4.0, current, req, current).empty());
}

}  // namespace
}  // namespace papd
