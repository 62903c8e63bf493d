// Unit tests for the PowerDaemon: MSR programming, Ryzen 3-P-state
// invariant, closed-loop convergence.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/msr/fault_plan.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

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

  // Runs the daemon closed-loop for `seconds`.
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

// Column `name` of the daemon's metrics rows: its per-period series.
std::vector<double> Series(const PowerDaemon& daemon, const std::string& name) {
  const std::vector<std::string>& names = daemon.metrics().scalar_names();
  const auto col = static_cast<size_t>(std::find(names.begin(), names.end(), name) - names.begin());
  std::vector<double> series;
  for (const obs::MetricsRegistry::Row& row : daemon.metrics().rows()) {
    series.push_back(row.values.at(col));
  }
  return series;
}

TEST(DaemonSkylake, StartProgramsInitialDistribution) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("leela", 100);
  rig.AddApp("cactusBSSN", 50);
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kFrequencyShares,
                                          .power_limit_w = Watts{50}});
  daemon.Start();
  EXPECT_DOUBLE_EQ(rig.pkg.core(0).requested_mhz().value(), 3000.0);
  EXPECT_DOUBLE_EQ(rig.pkg.core(1).requested_mhz().value(), 1500.0);
}

TEST(DaemonSkylake, ConvergesToPowerLimit) {
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 10; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kFrequencyShares,
                                          .power_limit_w = Watts{45}});
  daemon.Start();
  rig.Run(&daemon, Seconds{60.0});
  // Average package power over the last samples near the limit.
  const std::vector<double> pkg_w = Series(daemon, "daemon.pkg_w");
  Watts avg{0.0};
  int n = 0;
  for (size_t i = pkg_w.size() - 10; i < pkg_w.size(); i++) {
    avg += Watts{pkg_w[i]};
    n++;
  }
  avg /= n;
  EXPECT_NEAR(avg.value(), 45.0, 2.0);
}

TEST(DaemonSkylake, RaplOnlyProgramsLimitRegister) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kRaplOnly, .power_limit_w = Watts{40}});
  daemon.Start();
  EXPECT_TRUE(rig.pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 40.0);
  // Cores request maximum; RAPL does the throttling.
  EXPECT_DOUBLE_EQ(rig.pkg.core(0).requested_mhz().value(), 3000.0);
}

TEST(DaemonSkylake, StaticPinsFrequencies) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  rig.AddApp("gcc", 1.0);
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kStatic, .static_mhz = Mhz{1300}});
  daemon.Start();
  EXPECT_DOUBLE_EQ(rig.pkg.core(0).requested_mhz().value(), 1300.0);
  EXPECT_DOUBLE_EQ(rig.pkg.core(1).requested_mhz().value(), 1300.0);
}

TEST(DaemonSkylake, PriorityStarvationOfflinesCores) {
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 5; i++) {
    rig.AddApp("cactusBSSN", 1.0, /*hp=*/true);
  }
  for (int i = 0; i < 5; i++) {
    rig.AddApp("cactusBSSN", 1.0, /*hp=*/false);
  }
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kPriority, .power_limit_w = Watts{40}});
  daemon.Start();
  // LP cores start offline (starvation mode).
  for (int i = 5; i < 10; i++) {
    EXPECT_FALSE(rig.msr.CoreOnline(i));
  }
  rig.Run(&daemon, Seconds{30.0});
  // 5 HD HP apps cannot leave room for all LP apps at 40 W: at least some
  // LP cores remain offline.
  int offline = 0;
  for (int i = 5; i < 10; i++) {
    offline += rig.msr.CoreOnline(i) ? 0 : 1;
  }
  EXPECT_GT(offline, 0);
}

TEST(DaemonSkylake, HistoryRecordsSamplesAndTargets) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kFrequencyShares,
                                          .power_limit_w = Watts{40}});
  daemon.Start();
  rig.Run(&daemon, Seconds{5.0});
  const std::vector<double> pkg_w = Series(daemon, "daemon.pkg_w");
  ASSERT_EQ(pkg_w.size(), 5u);
  for (const double w : pkg_w) {
    EXPECT_GT(Watts{w}, Watts{0.0});
  }
  EXPECT_EQ(daemon.targets().size(), 1u);
}

// The metrics rows are the daemon's one per-period series: after every
// Step() the newest row holds the sample the daemon acted on and the ladder
// state it left, through nominal, hold and fallback periods alike.
TEST(DaemonSkylake, MetricsRowsAreThePerPeriodSeries) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  rig.AddApp("leela", 1.0);
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kFrequencyShares,
                                          .power_limit_w = Watts{40}});
  daemon.Start();
  size_t steps = 0;
  std::set<DegradationState> visited;
  Simulator sim(&rig.pkg);
  sim.AddPeriodic(Seconds{1.0}, [&](Seconds) {
    daemon.Step();
    steps++;
    ASSERT_EQ(daemon.metrics().rows().size(), steps);
    EXPECT_EQ(std::bit_cast<uint64_t>(Series(daemon, "daemon.pkg_w").back()),
              std::bit_cast<uint64_t>(daemon.last_sample().pkg_w.value()));
    EXPECT_EQ(Series(daemon, "daemon.ladder_state").back(),
              static_cast<double>(daemon.degradation_state()));
    visited.insert(daemon.degradation_state());
  });
  sim.Run(Seconds{5.0});
  FaultPlan stale_storm;
  stale_storm.seed = 11;
  stale_storm.stale_sample_p = 1.0;
  rig.msr.EnableFaults(stale_storm);
  sim.Run(Seconds{5.0});  // Two held periods, then fallback.
  rig.msr.EnableFaults(FaultPlan{});
  sim.Run(Seconds{5.0});
  EXPECT_EQ(steps, 15u);
  EXPECT_EQ(visited.size(), 3u);
  EXPECT_EQ(daemon.degradation_state(), DegradationState::kNominal);
}

TEST(DaemonRyzen, ThreePstateInvariantHolds) {
  Rig rig(Ryzen1700X());
  // Eight apps at eight different share levels want eight frequencies; the
  // selector must keep the hardware at <= 3 distinct values every period.
  for (int i = 0; i < 8; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 10.0 + 12.0 * i);
  }
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kFrequencyShares,
                                          .power_limit_w = Watts{45}});
  daemon.Start();
  EXPECT_LE(rig.pkg.DistinctRequestedFrequencies(), 3);
  Simulator sim(&rig.pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon, &rig](Seconds) {
    daemon.Step();
    ASSERT_LE(rig.pkg.DistinctRequestedFrequencies(), 3);
  });
  sim.Run(Seconds{40.0});
}

TEST(DaemonRyzen, PowerSharesConvergesToLimit) {
  Rig rig(Ryzen1700X());
  for (int i = 0; i < 8; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kPowerShares,
                                          .power_limit_w = Watts{40}});
  daemon.Start();
  rig.Run(&daemon, Seconds{60.0});
  const std::vector<double> pkg_w = Series(daemon, "daemon.pkg_w");
  Watts avg{0.0};
  for (size_t i = pkg_w.size() - 10; i < pkg_w.size(); i++) {
    avg += Watts{pkg_w[i]};
  }
  avg /= 10.0;
  EXPECT_NEAR(avg.value(), 40.0, 2.5);
}

TEST(DaemonRyzen, PowerSharesProportionalCorePower) {
  Rig rig(Ryzen1700X());
  rig.AddApp("leela", 75.0);
  rig.AddApp("leela", 25.0);
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kPowerShares,
                                          .power_limit_w = Watts{22}});
  daemon.Start();
  rig.Run(&daemon, Seconds{90.0});
  // Compare measured per-core power over the last sample.
  const TelemetrySample& sample = daemon.last_sample();
  ASSERT_TRUE(sample.cores[0].core_w.has_value());
  const Watts w0 = *sample.cores[0].core_w;
  const Watts w1 = *sample.cores[1].core_w;
  // 3:1 power split, within the tolerance the frequency floor allows.
  EXPECT_GT(w0 / w1, 1.8);
}

TEST(DaemonSkylake, SetPowerLimitTakesEffect) {
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 10; i++) {
    rig.AddApp("cactusBSSN", 1.0);
  }
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{60}});
  daemon.Start();
  rig.Run(&daemon, Seconds{30.0});
  EXPECT_NEAR(daemon.last_sample().pkg_w.value(), 60.0, 4.0);
  daemon.SetPowerLimit(Watts{40.0});
  rig.Run(&daemon, Seconds{30.0});
  EXPECT_NEAR(daemon.last_sample().pkg_w.value(), 40.0, 3.0);
}

TEST(DaemonSkylake, SetPowerLimitReprogramsRaplRegister) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  PowerDaemon daemon(&rig.msr, rig.apps, {.kind = PolicyKind::kRaplOnly, .power_limit_w = Watts{60}});
  daemon.Start();
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 60.0);
  daemon.SetPowerLimit(Watts{45.0});
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 45.0);
}

TEST(DaemonSkylake, FallbackUsesConfiguredFloor) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  rig.AddApp("leela", 1.0);
  DaemonConfig cfg;
  cfg.kind = PolicyKind::kFrequencyShares;
  cfg.power_limit_w = Watts{40.0};
  cfg.degradation.floor_mhz = Mhz{1200.0};
  PowerDaemon daemon(&rig.msr, rig.apps, cfg);
  daemon.Start();
  rig.Run(&daemon, Seconds{5.0});
  FaultPlan storm;
  storm.stale_sample_p = 1.0;
  rig.msr.EnableFaults(storm);
  rig.Run(&daemon, Seconds{5.0});
  ASSERT_EQ(daemon.degradation_state(), DegradationState::kFallback);
  EXPECT_DOUBLE_EQ(rig.pkg.core(0).requested_mhz().value(), 1200.0);
  EXPECT_DOUBLE_EQ(rig.pkg.core(1).requested_mhz().value(), 1200.0);
}

TEST(DaemonRyzen, DroppedWriteDetectedByReadBack) {
  // Ryzen programming goes through P-state definitions and per-core
  // selectors; verification must read those back (there is no RAPL register
  // to fall back on, so the net stays unarmed — no crash, just retries).
  Rig rig(Ryzen1700X());
  for (int i = 0; i < 4; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{40}});
  daemon.Start();
  rig.Run(&daemon, Seconds{10.0});
  FaultPlan drops;
  drops.write_fail_p = 1.0;
  rig.msr.EnableFaults(drops);
  daemon.SetPowerLimit(Watts{30.0});
  rig.Run(&daemon, Seconds{10.0});
  EXPECT_GE(daemon.fault_stats().failed_programs, 2);
  EXPECT_GE(daemon.write_fail_streak(), 1);
  rig.msr.EnableFaults(FaultPlan{});
  rig.Run(&daemon, Seconds{10.0});
  EXPECT_EQ(daemon.write_fail_streak(), 0);
  EXPECT_EQ(daemon.degradation_state(), DegradationState::kNominal);
}

// A trivial custom policy: always request the same frequency everywhere.
class FixedPolicy : public ShareResource {
 public:
  explicit FixedPolicy(Mhz mhz) : mhz_(mhz) {}
  std::string Name() const override { return "fixed"; }
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps, Watts) override {
    return std::vector<Mhz>(apps.size(), mhz_);
  }
  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps, const TelemetrySample&,
                                Watts) override {
    return std::vector<Mhz>(apps.size(), mhz_);
  }

 private:
  Mhz mhz_;
};

TEST(DaemonCustomPolicy, CustomShareResourceDrivesTargets) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  rig.AddApp("leela", 1.0);
  DaemonConfig dcfg;
  dcfg.power_limit_w = Watts{50.0};
  PowerDaemon daemon(&rig.msr, rig.apps, dcfg, std::make_unique<FixedPolicy>(Mhz{1500.0}));
  daemon.Start();
  rig.Run(&daemon, Seconds{5.0});
  EXPECT_DOUBLE_EQ(rig.pkg.core(0).requested_mhz().value(), 1500.0);
  EXPECT_DOUBLE_EQ(rig.pkg.core(1).requested_mhz().value(), 1500.0);
}

TEST(DaemonCustomPolicy, WorksOnRyzenThroughSelector) {
  Rig rig(Ryzen1700X());
  rig.AddApp("gcc", 1.0);
  DaemonConfig dcfg;
  dcfg.power_limit_w = Watts{40.0};
  PowerDaemon daemon(&rig.msr, rig.apps, dcfg, std::make_unique<FixedPolicy>(Mhz{2000.0}));
  daemon.Start();
  rig.Run(&daemon, Seconds{5.0});
  EXPECT_DOUBLE_EQ(rig.pkg.core(0).requested_mhz().value(), 2000.0);
  EXPECT_LE(rig.pkg.DistinctRequestedFrequencies(), 3);
}

TEST(DaemonConfig, PolicyKindNames) {
  EXPECT_STREQ(PolicyKindName(PolicyKind::kRaplOnly), "rapl");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kPriority), "priority");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kFrequencyShares), "freq-shares");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kPerformanceShares), "perf-shares");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kPowerShares), "power-shares");
  EXPECT_STREQ(PolicyKindName(PolicyKind::kStatic), "static");
}

TEST(MakePolicyPlatformTest, DerivesDatasheetFacts) {
  const PolicyPlatform p = MakePolicyPlatform(SkylakeXeon4114());
  EXPECT_DOUBLE_EQ(p.min_mhz.value(), 800.0);
  EXPECT_DOUBLE_EQ(p.max_mhz.value(), 3000.0);
  EXPECT_DOUBLE_EQ(p.max_power_w.value(), 85.0);
  EXPECT_EQ(p.num_cores, 10);
  EXPECT_GT(p.core_max_w, p.core_min_w);
}

}  // namespace
}  // namespace papd
