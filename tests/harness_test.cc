// Unit tests for the experiment harness and scenario builders.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"

namespace papd {
namespace {

TEST(Standalone, BaselinesAreSane) {
  const auto& gcc = Standalone(SkylakeXeon4114(), "gcc");
  EXPECT_GT(gcc.ips, Ips{1e9});
  EXPECT_GT(gcc.active_mhz, Mhz{2500.0});  // Single core turbos.
  EXPECT_GT(gcc.pkg_w, Watts{10.0});
  EXPECT_LT(gcc.pkg_w, Watts{85.0});
}

TEST(Standalone, CachedResultsStable) {
  // Standalone() returns by value so no reference to the lock-guarded cache
  // escapes; stability means the cache-hit call yields identical bits.
  const auto a = Standalone(SkylakeXeon4114(), "leela");
  const auto b = Standalone(SkylakeXeon4114(), "leela");
  EXPECT_DOUBLE_EQ(a.ips.value(), b.ips.value());
  EXPECT_DOUBLE_EQ(a.active_mhz.value(), b.active_mhz.value());
  EXPECT_DOUBLE_EQ(a.pkg_w.value(), b.pkg_w.value());
  EXPECT_DOUBLE_EQ(a.core_w.value(), b.core_w.value());
}

// Regression test for the Standalone() cache data race: concurrent callers
// (as issued by RunScenarios worker threads) must be safe, both when racing
// to fill the same key and when inserting different keys.  The sanitizer
// matrix runs this under TSan, which is what actually checks the locking.
TEST(Standalone, ConcurrentCallsAreSafe) {
  const std::vector<std::string> profiles = {"gcc", "leela", "cactusBSSN", "omnetpp"};
  std::vector<std::thread> threads;
  std::vector<StandaloneBaseline> seen(8);
  for (size_t t = 0; t < seen.size(); t++) {
    threads.emplace_back([t, &profiles, &seen] {
      // Every thread hits every key; pairs of threads share a first key so
      // the fill race itself is exercised too.
      for (size_t i = 0; i < profiles.size(); i++) {
        seen[t] = Standalone(SkylakeXeon4114(), profiles[(t / 2 + i) % profiles.size()]);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  // All threads ended on a key from the same rotation; whatever the
  // interleaving, each baseline must match a fresh lookup.
  for (size_t t = 0; t < seen.size(); t++) {
    const std::string& last = profiles[(t / 2 + profiles.size() - 1) % profiles.size()];
    EXPECT_EQ(seen[t].ips, Standalone(SkylakeXeon4114(), last).ips);
  }
}

// The cache is keyed by the whole spec: a modified preset keeps its name but
// must not get the preset's baseline, and an equal spec gets the cached one.
TEST(Standalone, ModifiedSpecGetsItsOwnBaseline) {
  const PlatformSpec preset = SkylakeXeon4114();
  PlatformSpec hotter = preset;
  hotter.power.ceff_w_per_v2ghz *= 1.5;
  PlatformSpec slower = preset;
  slower.turbo_max_mhz = Mhz{2200};

  const StandaloneBaseline base = Standalone(preset, "leela");
  const StandaloneBaseline hot = Standalone(hotter, "leela");
  const StandaloneBaseline slow = Standalone(slower, "leela");
  // More switched capacitance at the same frequency: more power, same work.
  EXPECT_GT(hot.pkg_w, base.pkg_w);
  EXPECT_GT(hot.core_w, base.core_w);
  // A lower turbo ceiling: less work.
  EXPECT_LT(slow.ips, base.ips);
  EXPECT_LT(slow.active_mhz, base.active_mhz);

  // Equal specs, built separately, read the cached entries bit for bit, and
  // the preset's entry survived the other two inserts.
  PlatformSpec hotter_again = SkylakeXeon4114();
  hotter_again.power.ceff_w_per_v2ghz *= 1.5;
  const StandaloneBaseline hot_again = Standalone(hotter_again, "leela");
  EXPECT_EQ(hot_again.ips, hot.ips);
  EXPECT_EQ(hot_again.pkg_w, hot.pkg_w);
  const StandaloneBaseline base_again = Standalone(SkylakeXeon4114(), "leela");
  EXPECT_EQ(base_again.ips, base.ips);
  EXPECT_EQ(base_again.pkg_w, base.pkg_w);
}

TEST(Standalone, AvxAppCappedBelowTurbo) {
  const auto& cam4 = Standalone(SkylakeXeon4114(), "cam4");
  EXPECT_LE(cam4.active_mhz, SkylakeXeon4114().avx_max_mhz_light + Mhz{1.0});
}

TEST(RunScenario, BasicStaticRun) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{.profile = "gcc"}, {.profile = "leela"}};
  c.policy = PolicyKind::kStatic;
  c.static_mhz = Mhz{2000};
  c.warmup_s = Seconds{2};
  c.measure_s = Seconds{10};
  const ScenarioResult r = RunScenario(c);
  ASSERT_EQ(r.apps.size(), 2u);
  EXPECT_NEAR(r.apps[0].avg_active_mhz.value(), 2000.0, 5.0);
  EXPECT_NEAR(r.apps[1].avg_active_mhz.value(), 2000.0, 5.0);
  EXPECT_GT(r.apps[0].avg_ips, Ips{0.0});
  EXPECT_GT(r.avg_pkg_w, Watts{10.0});
  EXPECT_FALSE(r.apps[0].starved);
  EXPECT_NEAR(r.measured_s.value(), 10.0, 0.01);  // Tick-quantized window.
}

TEST(RunScenario, NormalizedPerformanceAgainstStandalone) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{.profile = "leela"}};
  c.policy = PolicyKind::kStatic;
  c.static_mhz = Mhz{3000};
  c.warmup_s = Seconds{2};
  c.measure_s = Seconds{10};
  const ScenarioResult r = RunScenario(c);
  // Alone at max request == the standalone baseline. Normalized perf ~ 1.
  EXPECT_NEAR(r.apps[0].norm_perf, 1.0, 0.03);
}

TEST(RunScenario, RaplLimitEnforced) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  for (int i = 0; i < 10; i++) {
    c.apps.push_back({.profile = "cactusBSSN"});
  }
  c.policy = PolicyKind::kRaplOnly;
  c.limit_w = Watts{40};
  c.warmup_s = Seconds{5};
  c.measure_s = Seconds{20};
  const ScenarioResult r = RunScenario(c);
  EXPECT_NEAR(r.avg_pkg_w.value(), 40.0, 1.5);
}

TEST(RunScenario, DeterministicForSameSeed) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{.profile = "gcc"}, {.profile = "cam4"}};
  c.policy = PolicyKind::kRaplOnly;
  c.limit_w = Watts{30};
  c.warmup_s = Seconds{2};
  c.measure_s = Seconds{10};
  const ScenarioResult a = RunScenario(c);
  const ScenarioResult b = RunScenario(c);
  EXPECT_DOUBLE_EQ(a.avg_pkg_w.value(), b.avg_pkg_w.value());
  EXPECT_DOUBLE_EQ(a.apps[0].avg_ips.value(), b.apps[0].avg_ips.value());
}

// Socket hold moves the daemon step into SocketStack::AdvancePeriod, which
// only the budget tree calls; the experiment drivers step the simulator
// themselves, so the option must leave their runs untouched.
TEST(RunScenario, SocketHoldOptionDoesNotApply) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{.profile = "gcc", .shares = 2.0}, {.profile = "leela", .shares = 1.0}};
  c.policy = PolicyKind::kFrequencyShares;
  c.limit_w = Watts{30};
  c.warmup_s = Seconds{2};
  c.measure_s = Seconds{6};
  c.run.tick.policy = TickPolicy::kMultiRate;
  c.run.obs.trace = true;
  const ScenarioResult plain = RunScenario(c);
  c.run.tick.socket_hold = true;
  const ScenarioResult held = RunScenario(c);
  EXPECT_DOUBLE_EQ(plain.avg_pkg_w.value(), held.avg_pkg_w.value());
  EXPECT_DOUBLE_EQ(plain.apps[0].avg_ips.value(), held.apps[0].avg_ips.value());
  // The daemon stepped once per second of both runs.
  const auto periods = [](const ScenarioResult& r) {
    return std::count_if(r.trace_events.begin(), r.trace_events.end(), [](const auto& e) {
      return e.type == obs::TraceEventType::kPeriodBegin;
    });
  };
  EXPECT_EQ(periods(held), 8);
  EXPECT_EQ(periods(plain), 8);
}

TEST(AddResourceShares, SharesSumToOne) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{.profile = "gcc"}, {.profile = "leela"}, {.profile = "cactusBSSN"}};
  c.policy = PolicyKind::kStatic;
  c.static_mhz = Mhz{1800};
  c.warmup_s = Seconds{2};
  c.measure_s = Seconds{10};
  ScenarioResult r = RunScenario(c);
  AddResourceShares(&r);
  double f = 0.0;
  double p = 0.0;
  double w = 0.0;
  for (const AppResult& app : r.apps) {
    f += app.share_of_freq;
    p += app.share_of_perf;
    w += app.share_of_power;
  }
  EXPECT_NEAR(f, 1.0, 1e-9);
  EXPECT_NEAR(p, 1.0, 1e-9);
  EXPECT_NEAR(w, 1.0, 1e-9);
}

TEST(RunWebsearch, BaselineRunsCleanly) {
  WebsearchConfig c{.platform = SkylakeXeon4114()};
  c.policy = PolicyKind::kRaplOnly;
  c.limit_w = Watts{85};
  c.with_cpuburn = false;
  c.warmup_s = Seconds{10};
  c.measure_s = Seconds{60};
  const WebsearchResult r = RunWebsearch(c);
  EXPECT_GT(r.completed_requests, 3000u);
  EXPECT_GT(r.p90_latency, Seconds{0.0});
  EXPECT_GE(r.p99_latency, r.p90_latency);
  EXPECT_GE(r.p90_latency, r.p50_latency);
  EXPECT_GT(r.websearch_avg_mhz, Mhz{2000.0});
}

TEST(RunWebsearch, CpuburnUnderRaplHurtsLatency) {
  WebsearchConfig alone{.platform = SkylakeXeon4114()};
  alone.policy = PolicyKind::kRaplOnly;
  alone.limit_w = Watts{40};
  alone.with_cpuburn = false;
  alone.warmup_s = Seconds{10};
  alone.measure_s = Seconds{90};
  WebsearchConfig burdened = alone;
  burdened.with_cpuburn = true;
  const WebsearchResult a = RunWebsearch(alone);
  const WebsearchResult b = RunWebsearch(burdened);
  EXPECT_GT(b.p90_latency, 1.5 * a.p90_latency);
}

TEST(Scenarios, Table2MixesMatchPaper) {
  const auto mixes = SkylakePriorityMixes();
  ASSERT_EQ(mixes.size(), 5u);
  EXPECT_EQ(mixes[0].label, "10H0L");
  EXPECT_EQ(mixes[0].apps.size(), 10u);
  // Table 2 row "7H3L": 4 cactus-HP, 3 leela-HP, 1 cactus-LP, 2 leela-LP.
  const auto& m7 = mixes[1];
  int chp = 0;
  int lhp = 0;
  int clp = 0;
  int llp = 0;
  for (const AppSetup& a : m7.apps) {
    if (a.profile == "cactusBSSN") {
      (a.high_priority ? chp : clp)++;
    } else {
      (a.high_priority ? lhp : llp)++;
    }
  }
  EXPECT_EQ(chp, 4);
  EXPECT_EQ(lhp, 3);
  EXPECT_EQ(clp, 1);
  EXPECT_EQ(llp, 2);
  for (const auto& mix : mixes) {
    EXPECT_EQ(mix.apps.size(), 10u) << mix.label;
  }
}

TEST(Scenarios, RyzenMixesFillAllCores) {
  for (const auto& mix : RyzenPriorityMixes()) {
    EXPECT_EQ(mix.apps.size(), 8u) << mix.label;
  }
}

TEST(Scenarios, ShareSplitMix) {
  const WorkloadMix mix = ShareSplitMix(10, 90, 10);
  ASSERT_EQ(mix.apps.size(), 10u);
  EXPECT_EQ(mix.apps[0].profile, "leela");
  EXPECT_DOUBLE_EQ(mix.apps[0].shares, 90.0);
  EXPECT_EQ(mix.apps[5].profile, "cactusBSSN");
  EXPECT_DOUBLE_EQ(mix.apps[5].shares, 10.0);
}

TEST(Scenarios, RandomSetsMatchTable3) {
  const auto sets = RandomSets();
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].apps[2], "cactusBSSN");
  EXPECT_EQ(sets[1].apps[4], "lbm");
  const auto apps = RandomSetApps(sets[0]);
  ASSERT_EQ(apps.size(), 10u);
  // Two copies of each, same share; shares rise with app index.
  EXPECT_EQ(apps[0].profile, apps[1].profile);
  EXPECT_DOUBLE_EQ(apps[0].shares, apps[1].shares);
  EXPECT_DOUBLE_EQ(apps[0].shares, 20.0);
  EXPECT_DOUBLE_EQ(apps[8].shares, 100.0);
}

}  // namespace
}  // namespace papd
