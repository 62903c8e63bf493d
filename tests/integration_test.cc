// End-to-end property tests: the paper-level claims each policy must
// satisfy, exercised through the full stack (workloads -> simulator -> MSRs
// -> turbostat -> daemon -> P-state writes).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/batch.h"
#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"
#include "src/msr/msr.h"
#include "src/specsim/spinlock.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

ScenarioConfig BaseConfig(PlatformSpec platform) {
  ScenarioConfig c{.platform = std::move(platform)};
  c.warmup_s = Seconds{30};
  c.measure_s = Seconds{60};
  return c;
}

// ---- Property: every policy keeps package power at (or under) the limit.

class PowerLimitRespected
    : public ::testing::TestWithParam<std::tuple<PolicyKind, double>> {};

TEST_P(PowerLimitRespected, SteadyStatePowerNearLimit) {
  const auto [policy, limit] = GetParam();
  ScenarioConfig c = BaseConfig(SkylakeXeon4114());
  c.policy = policy;
  c.limit_w = Watts{limit};
  for (int i = 0; i < 10; i++) {
    c.apps.push_back({.profile = i % 2 ? "cactusBSSN" : "leela",
                      .shares = 10.0 + i * 9.0,
                      .high_priority = i % 2 == 0});
  }
  const ScenarioResult r = RunScenario(c);
  // Demand far exceeds these limits, so steady state sits near the limit;
  // the daemon's deadband and P-state quantization allow small error.
  EXPECT_LT(r.avg_pkg_w, Watts{limit + 2.5});
  EXPECT_GT(r.avg_pkg_w, Watts{limit - 6.0});
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndLimits, PowerLimitRespected,
    ::testing::Combine(::testing::Values(PolicyKind::kRaplOnly, PolicyKind::kPriority,
                                         PolicyKind::kFrequencyShares,
                                         PolicyKind::kPerformanceShares),
                       ::testing::Values(40.0, 50.0, 60.0)),
    [](const ::testing::TestParamInfo<std::tuple<PolicyKind, double>>& info) {
      std::string name = std::string(PolicyKindName(std::get<0>(info.param))) + "_" +
                         std::to_string(static_cast<int>(std::get<1>(info.param))) + "W";
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

// Same property on Ryzen, including power shares (which need per-core
// telemetry).  Ryzen has no RAPL, so only daemon policies apply.
class RyzenPowerLimitRespected : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(RyzenPowerLimitRespected, SteadyStatePowerNearLimit) {
  ScenarioConfig c = BaseConfig(Ryzen1700X());
  c.policy = GetParam();
  c.limit_w = Watts{45};
  for (int i = 0; i < 8; i++) {
    c.apps.push_back({.profile = i % 2 ? "cactusBSSN" : "leela",
                      .shares = 10.0 + i * 12.0,
                      .high_priority = i % 2 == 0});
  }
  const ScenarioResult r = RunScenario(c);
  EXPECT_LT(r.avg_pkg_w, Watts{45 + 2.5});
  EXPECT_GT(r.avg_pkg_w, Watts{45 - 6.0});
}

INSTANTIATE_TEST_SUITE_P(Policies, RyzenPowerLimitRespected,
                         ::testing::Values(PolicyKind::kPriority,
                                           PolicyKind::kFrequencyShares,
                                           PolicyKind::kPerformanceShares,
                                           PolicyKind::kPowerShares),
                         [](const ::testing::TestParamInfo<PolicyKind>& info) {
                           std::string name = PolicyKindName(info.param);
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// ---- Figure 1 property: RAPL throttles the low-demand app harder.

TEST(RaplInterference, LowDemandAppLosesMoreUnderRapl) {
  ScenarioConfig c = BaseConfig(SkylakeXeon4114());
  c.policy = PolicyKind::kRaplOnly;
  c.limit_w = Watts{40};
  for (int i = 0; i < 5; i++) {
    c.apps.push_back({.profile = "gcc"});
  }
  for (int i = 0; i < 5; i++) {
    c.apps.push_back({.profile = "cam4"});
  }
  const ScenarioResult r = RunScenario(c);
  // gcc (LD) loses a larger fraction of its standalone performance than
  // cam4 (HD): the paper's headline unfairness.
  EXPECT_LT(r.apps[0].norm_perf, r.apps[5].norm_perf);
}

// ---- Figure 7 property: the priority policy protects HP apps where RAPL
// ---- cannot distinguish them.

TEST(PriorityVsRapl, HpAppsProtectedAtLowLimit) {
  ScenarioConfig rapl = BaseConfig(SkylakeXeon4114());
  rapl.policy = PolicyKind::kRaplOnly;
  rapl.limit_w = Watts{40};
  rapl.apps = SkylakePriorityMixes()[2].apps;  // 5H5L.
  ScenarioConfig prio = rapl;
  prio.policy = PolicyKind::kPriority;
  const std::vector<ScenarioResult> results = RunScenarios({rapl, prio});
  const ScenarioResult& r_rapl = results[0];
  const ScenarioResult& r_prio = results[1];

  double rapl_hp = 0.0;
  double prio_hp = 0.0;
  for (size_t i = 0; i < r_rapl.apps.size(); i++) {
    if (r_rapl.apps[i].high_priority) {
      rapl_hp += r_rapl.apps[i].norm_perf;
      prio_hp += r_prio.apps[i].norm_perf;
    }
  }
  EXPECT_GT(prio_hp, rapl_hp * 1.1);
}

TEST(Priority, StarvationAtLowLimitWithManyHp) {
  // Figure 7: at 40 W with most apps HP there is no residual power; LP apps
  // starve.
  ScenarioConfig c = BaseConfig(SkylakeXeon4114());
  c.policy = PolicyKind::kPriority;
  c.limit_w = Watts{40};
  c.apps = SkylakePriorityMixes()[1].apps;  // 7H3L.
  const ScenarioResult r = RunScenario(c);
  int starved = 0;
  for (const AppResult& app : r.apps) {
    if (!app.high_priority && app.starved) {
      starved++;
    }
  }
  EXPECT_GT(starved, 0);
}

TEST(Priority, NoStarvationAtHighLimit) {
  ScenarioConfig c = BaseConfig(SkylakeXeon4114());
  c.policy = PolicyKind::kPriority;
  c.limit_w = Watts{85};
  c.apps = SkylakePriorityMixes()[2].apps;  // 5H5L.
  const ScenarioResult r = RunScenario(c);
  for (const AppResult& app : r.apps) {
    EXPECT_FALSE(app.starved) << app.name;
  }
}

TEST(Priority, OpportunisticBoostWhenLpStarved) {
  // Figure 7's 40 W / few-HP observation: starving LP apps frees turbo
  // headroom, so HP apps can run *faster* than at 85 W with all cores busy.
  ScenarioConfig low = BaseConfig(SkylakeXeon4114());
  low.policy = PolicyKind::kPriority;
  low.limit_w = Watts{40};
  low.apps = SkylakePriorityMixes()[3].apps;  // 3H7L.
  ScenarioConfig high = low;
  high.limit_w = Watts{85};
  const std::vector<ScenarioResult> results = RunScenarios({low, high});
  const ScenarioResult& r_low = results[0];
  const ScenarioResult& r_high = results[1];

  double hp_low = 0.0;
  double hp_high = 0.0;
  int hp_n = 0;
  for (size_t i = 0; i < r_low.apps.size(); i++) {
    if (r_low.apps[i].high_priority) {
      hp_low += r_low.apps[i].avg_active_mhz.value();
      hp_high += r_high.apps[i].avg_active_mhz.value();
      hp_n++;
    }
  }
  // At 40 W the three HP apps run at least as fast as at 85 W (where all
  // ten cores share the turbo budget).
  EXPECT_GE(hp_low / hp_n, hp_high / hp_n - 50.0);
}

// ---- Figures 9-10 property: share ordering and isolation.

class ShareOrdering : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ShareOrdering, HigherSharesMoreResource) {
  ScenarioConfig c = BaseConfig(SkylakeXeon4114());
  c.policy = GetParam();
  c.limit_w = Watts{50};
  c.apps = ShareSplitMix(10, 70, 30).apps;  // leela 70 / cactus 30.
  ScenarioResult r = RunScenario(c);
  AddResourceShares(&r);
  // Mean active frequency of the high-share (leela) halves exceeds the
  // low-share half.
  double hi = 0.0;
  double lo = 0.0;
  for (const AppResult& app : r.apps) {
    (app.shares > 50 ? hi : lo) += app.avg_active_mhz.value() / 5.0;
  }
  EXPECT_GT(hi, lo * 1.3);
}

INSTANTIATE_TEST_SUITE_P(Policies, ShareOrdering,
                         ::testing::Values(PolicyKind::kFrequencyShares,
                                           PolicyKind::kPerformanceShares),
                         [](const ::testing::TestParamInfo<PolicyKind>& info) {
                           std::string name = PolicyKindName(info.param);
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

TEST(ShareIsolation, FrequencySharesIsolateFromPowerVirus) {
  // The unfair-throttling scenario, batch form: a 90-share leela next to a
  // 10-share cpuburn keeps most of its standalone performance under the
  // policy, but not under RAPL.
  ScenarioConfig rapl = BaseConfig(SkylakeXeon4114());
  rapl.policy = PolicyKind::kRaplOnly;
  rapl.limit_w = Watts{40};
  rapl.apps = {{.profile = "leela", .shares = 90.0}, {.profile = "cpuburn", .shares = 10.0}};
  ScenarioConfig share = rapl;
  share.policy = PolicyKind::kFrequencyShares;
  const std::vector<ScenarioResult> results = RunScenarios({rapl, share});
  const ScenarioResult& r_rapl = results[0];
  const ScenarioResult& r_share = results[1];

  EXPECT_GT(r_share.apps[0].norm_perf, r_rapl.apps[0].norm_perf);
}

TEST(ShareMinimumFloor, ExtremRatiosCannotBeHonored) {
  // Paper Section 6.2: the daemon cannot push an app below ~20% of the
  // resource because of the minimum frequency.
  ScenarioConfig c = BaseConfig(SkylakeXeon4114());
  c.policy = PolicyKind::kFrequencyShares;
  c.limit_w = Watts{50};
  c.apps = ShareSplitMix(10, 90, 10).apps;
  ScenarioResult r = RunScenario(c);
  AddResourceShares(&r);
  double low_share_freq = 0.0;
  for (const AppResult& app : r.apps) {
    if (app.shares < 50.0) {
      low_share_freq += app.share_of_freq;
    }
  }
  // The five 10-share apps hold well over their 10% proportional share.
  EXPECT_GT(low_share_freq, 0.15);
}

// ---- Figure 10 property: power shares equalize power, not performance.

TEST(PowerVsFrequencyShares, PowerSharesWorseIsolationOfPerformance) {
  // Equal power to an HD and an LD app yields unequal performance: the HD
  // app gets less done per watt.  Frequency shares with the same 50/50
  // split give more even normalized performance.
  ScenarioConfig c = BaseConfig(Ryzen1700X());
  c.limit_w = Watts{40};
  c.apps = ShareSplitMix(8, 50, 50).apps;

  c.policy = PolicyKind::kPowerShares;
  ScenarioConfig freq = c;
  freq.policy = PolicyKind::kFrequencyShares;
  const std::vector<ScenarioResult> results = RunScenarios({c, freq});
  const ScenarioResult& r_power = results[0];
  const ScenarioResult& r_freq = results[1];

  auto perf_gap = [](const ScenarioResult& r) {
    double ld = 0.0;
    double hd = 0.0;
    for (const AppResult& app : r.apps) {
      (app.name == "leela" ? ld : hd) += app.norm_perf / 4.0;
    }
    return std::abs(ld - hd);
  };
  EXPECT_GE(perf_gap(r_power), perf_gap(r_freq) - 0.02);
}

// ---- Figures 5/12 property: policies fix the websearch latency collapse.

TEST(Websearch, PolicyRecoversLatencyLostToRapl) {
  WebsearchConfig base{.platform = SkylakeXeon4114()};
  base.limit_w = Watts{40};
  base.warmup_s = Seconds{20};
  base.measure_s = Seconds{120};

  WebsearchConfig rapl = base;
  rapl.policy = PolicyKind::kRaplOnly;
  WebsearchConfig share = base;
  share.policy = PolicyKind::kFrequencyShares;
  const std::vector<WebsearchResult> results = RunWebsearches({rapl, share});
  const WebsearchResult& r_rapl = results[0];
  const WebsearchResult& r_share = results[1];

  // The policy pins the virus near the minimum P-state and returns the
  // power to websearch.
  EXPECT_LT(r_share.cpuburn_avg_mhz, r_rapl.cpuburn_avg_mhz);
  EXPECT_GT(r_share.websearch_avg_mhz, r_rapl.websearch_avg_mhz);
  EXPECT_LT(r_share.p90_latency, r_rapl.p90_latency);
}

// ---- Demand drop: a finishing app's power flows to the others.

TEST(DemandDrop, CompletionRedistributesPowerToRemainingApps) {
  // Two cactusBSSN instances under a tight 25 W limit; one finishes after
  // ~25 s and idles.  The control loop should hand its power to the
  // survivor, whose frequency rises.
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  MsrFile msr(&pkg);
  WorkloadProfile short_run = GetProfile("cactusBSSN");
  short_run.total_ginstr = 40.0;  // Finishes in tens of seconds when slow.
  Process finishing(short_run, 1);
  finishing.set_run_to_completion(true);
  Process persistent(GetProfile("cactusBSSN"), 2);
  pkg.AttachWork(0, &finishing);
  pkg.AttachWork(1, &persistent);

  std::vector<ManagedApp> apps = {
      {.name = "short", .cpu = 0, .shares = 1.0, .baseline_ips = Ips{2e9}},
      {.name = "long", .cpu = 1, .shares = 1.0, .baseline_ips = Ips{2e9}},
  };
  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kFrequencyShares;
  dcfg.power_limit_w = Watts{25.0};
  PowerDaemon daemon(&msr, apps, dcfg);
  daemon.Start();
  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });

  // Coarse completion checks: every 0.1 s, up to 120 s.
  for (int step = 0; step < 1200 && !finishing.finished(); step++) {
    sim.Run(Seconds{0.1});
  }
  ASSERT_TRUE(finishing.finished());
  const Mhz before{daemon.last_sample().cores[1].active_mhz};
  sim.Run(Seconds{20.0});  // Let the controller absorb the freed power.
  const Mhz after{daemon.last_sample().cores[1].active_mhz};
  EXPECT_GT(after, before + Mhz{100.0});
  // Package power returns to (near) the limit.
  EXPECT_GT(daemon.last_sample().pkg_w, Watts{18.0});
}

// ---- Section 5.2 caveat: IPS misleads on lock-contended code.

TEST(SpinlockVsPolicies, SpinningCoresReportHealthyIpsWhileConvoyed) {
  // A 4-thread lock-contended app shares the package with cpuburn under a
  // 35 W limit and 50/50 shares per core.  The daemon's telemetry shows
  // high IPS on the spinning cores even though the application's useful
  // iteration rate is bounded by the convoyed lock — the measurement a
  // performance-share policy would wrongly trust, which is why the paper
  // recommends HWP's abstract metric for multithreaded workloads.
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  MsrFile msr(&pkg);
  SpinLockWork app({0, 1, 2, 3});
  pkg.AttachMultiWork(&app);
  Process burn(GetProfile("cpuburn"), 7);
  pkg.AttachWork(4, &burn);

  std::vector<ManagedApp> managed;
  for (int c = 0; c < 4; c++) {
    managed.push_back(ManagedApp{.name = "spinlock",
                                 .cpu = c,
                                 .shares = 50.0,
                                 .baseline_ips = IpsAtMhz(spec.turbo_max_mhz, /*ipc=*/1.0)});
  }
  managed.push_back(ManagedApp{.name = "cpuburn",
                               .cpu = 4,
                               .shares = 50.0,
                               .baseline_ips = Standalone(spec, "cpuburn").ips});

  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kPerformanceShares;
  dcfg.power_limit_w = Watts{35.0};
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();
  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });
  sim.Run(Seconds{40.0});

  const TelemetrySample& sample = daemon.last_sample();
  // Telemetry on the spinlock cores reports substantial IPS...
  Ips min_ips{1e18};
  Mhz min_mhz{1e9};
  for (int c = 0; c < 4; c++) {
    min_ips = std::min(min_ips, sample.cores[static_cast<size_t>(c)].ips);
    min_mhz = std::min(min_mhz, sample.cores[static_cast<size_t>(c)].active_mhz);
  }
  EXPECT_GT(min_ips, 0.8 * IpsAtMhz(min_mhz, /*ipc=*/1.0));
  // ...but the useful work per retired instruction is far below 1: most
  // retired instructions are spin loops.
  double retired = 0.0;
  for (int c = 0; c < 4; c++) {
    retired += pkg.core(c).instructions_retired();
  }
  const double useful = app.total_iterations() * (40000.0 + 20000.0);
  EXPECT_LT(useful / retired, 0.8);
}

}  // namespace
}  // namespace papd
