// Batch-vs-serial equivalence: RunScenarios / RunWebsearches must return
// byte-identical results to looping RunScenario / RunWebsearch over the
// same configs, for every policy kind.  Scenarios own all their mutable
// state, so any divergence means shared state leaked into the fan-out.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/thread_pool.h"
#include "src/experiments/batch.h"
#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"

namespace papd {
namespace {

// Short windows keep the suite fast; the trajectory still crosses several
// daemon periods.  Two profiles bound the Standalone() baseline cost.
ScenarioConfig SmallConfig(PolicyKind policy) {
  const bool ryzen = policy == PolicyKind::kPowerShares;
  ScenarioConfig c{.platform = ryzen ? Ryzen1700X() : SkylakeXeon4114()};
  c.apps = ShareSplitMix(ryzen ? 8 : 10, 70.0, 30.0).apps;
  c.policy = policy;
  if (policy == PolicyKind::kStatic) {
    c.static_mhz = Mhz{2000.0};
  }
  c.limit_w = Watts{45.0};
  c.warmup_s = Seconds{2.0};
  c.measure_s = Seconds{4.0};
  return c;
}

// EXPECT_EQ on doubles checks exact equality — bit-identical for any
// non-NaN value, which is the contract under test.
void ExpectIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.measured_s, b.measured_s);
  EXPECT_EQ(a.avg_pkg_w, b.avg_pkg_w);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (size_t i = 0; i < a.apps.size(); i++) {
    const AppResult& x = a.apps[i];
    const AppResult& y = b.apps[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.cpu, y.cpu);
    EXPECT_EQ(x.shares, y.shares);
    EXPECT_EQ(x.high_priority, y.high_priority);
    EXPECT_EQ(x.avg_ips, y.avg_ips);
    EXPECT_EQ(x.norm_perf, y.norm_perf);
    EXPECT_EQ(x.avg_active_mhz, y.avg_active_mhz);
    EXPECT_EQ(x.avg_busy, y.avg_busy);
    EXPECT_EQ(x.avg_core_w, y.avg_core_w);
    EXPECT_EQ(x.starved, y.starved);
  }
}

TEST(ParallelEquivalence, ScenariosMatchSerialForEveryPolicy) {
  const PolicyKind kPolicies[] = {PolicyKind::kRaplOnly, PolicyKind::kStatic,
                                  PolicyKind::kPriority, PolicyKind::kFrequencyShares,
                                  PolicyKind::kPerformanceShares, PolicyKind::kPowerShares};
  std::vector<ScenarioConfig> configs;
  for (PolicyKind policy : kPolicies) {
    configs.push_back(SmallConfig(policy));
  }

  std::vector<ScenarioResult> serial;
  for (const ScenarioConfig& c : configs) {
    serial.push_back(RunScenario(c));
  }

  ThreadPool pool(4);
  const std::vector<ScenarioResult> parallel = RunScenarios(configs, &pool);
  // A null pool runs the batch on the caller, like every ThreadPool* taker.
  const std::vector<ScenarioResult> on_caller = RunScenarios(configs, nullptr);

  ASSERT_EQ(parallel.size(), serial.size());
  ASSERT_EQ(on_caller.size(), serial.size());
  for (size_t i = 0; i < serial.size(); i++) {
    SCOPED_TRACE(PolicyKindName(configs[i].policy));
    ExpectIdentical(serial[i], parallel[i]);
    ExpectIdentical(serial[i], on_caller[i]);
  }
}

TEST(ParallelEquivalence, RepeatedBatchIsDeterministic) {
  std::vector<ScenarioConfig> configs(3, SmallConfig(PolicyKind::kFrequencyShares));
  ThreadPool pool(4);
  const std::vector<ScenarioResult> first = RunScenarios(configs, &pool);
  const std::vector<ScenarioResult> second = RunScenarios(configs, &pool);
  for (size_t i = 0; i < configs.size(); i++) {
    ExpectIdentical(first[i], second[i]);
    // All copies of the same config agree with one another too.
    ExpectIdentical(first[0], first[i]);
  }
}

TEST(ParallelEquivalence, WebsearchesMatchSerial) {
  std::vector<WebsearchConfig> configs;
  for (PolicyKind policy : {PolicyKind::kRaplOnly, PolicyKind::kFrequencyShares}) {
    WebsearchConfig c{.platform = SkylakeXeon4114()};
    c.policy = policy;
    c.limit_w = Watts{45.0};
    c.warmup_s = Seconds{2.0};
    c.measure_s = Seconds{6.0};
    configs.push_back(c);
  }

  std::vector<WebsearchResult> serial;
  for (const WebsearchConfig& c : configs) {
    serial.push_back(RunWebsearch(c));
  }
  ThreadPool pool(2);
  const std::vector<WebsearchResult> parallel = RunWebsearches(configs, &pool);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); i++) {
    EXPECT_EQ(serial[i].p50_latency, parallel[i].p50_latency);
    EXPECT_EQ(serial[i].p90_latency, parallel[i].p90_latency);
    EXPECT_EQ(serial[i].p99_latency, parallel[i].p99_latency);
    EXPECT_EQ(serial[i].completed_requests, parallel[i].completed_requests);
    EXPECT_EQ(serial[i].websearch_avg_mhz, parallel[i].websearch_avg_mhz);
    EXPECT_EQ(serial[i].cpuburn_avg_mhz, parallel[i].cpuburn_avg_mhz);
    EXPECT_EQ(serial[i].avg_pkg_w, parallel[i].avg_pkg_w);
  }
}

}  // namespace
}  // namespace papd
