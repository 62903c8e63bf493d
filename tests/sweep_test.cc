// Declarative sweep API tests: axis expansion is golden-tested (names,
// plot labels, and config forwarding are a contract with plotting
// scripts), RunSweep returns what its parts return, the JSON artifact
// round-trips through the repo's own parser the way `papdctl fleet` reads
// it, and the checked-in sample artifact is what its pinned spec writes.

#include "src/experiments/sweep.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/thread_pool.h"
#include "src/experiments/batch.h"
#include "src/experiments/scenarios.h"

namespace papd {
namespace {

// --- Expansion golden --------------------------------------------------------

TEST(SweepExpansion, FleetCrossProductGolden) {
  SweepSpec spec;
  spec.name = "fig";
  spec.target = SweepTarget::kFleet;
  spec.axes.users = {1e6, 2e6};
  spec.axes.caps_w = {Watts{1000.0}};
  spec.axes.shapes = {ArrivalShape::kConstant, ArrivalShape::kDiurnal};
  spec.axes.fleet_policies = {FleetPolicyStatic(), FleetPolicySloFeedback()};

  const std::vector<SweepPoint> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 8u);

  // Axis order is part of the contract: users (outermost), cap, shape,
  // policy (innermost) — adjacent points differ only in policy, so a
  // plotter can pair them off by plotgroup.
  const std::vector<std::string> expected_names = {
      "fig/users=1e+06/cap=1000w/shape=constant/policy=static",
      "fig/users=1e+06/cap=1000w/shape=constant/policy=slo-feedback",
      "fig/users=1e+06/cap=1000w/shape=diurnal/policy=static",
      "fig/users=1e+06/cap=1000w/shape=diurnal/policy=slo-feedback",
      "fig/users=2e+06/cap=1000w/shape=constant/policy=static",
      "fig/users=2e+06/cap=1000w/shape=constant/policy=slo-feedback",
      "fig/users=2e+06/cap=1000w/shape=diurnal/policy=static",
      "fig/users=2e+06/cap=1000w/shape=diurnal/policy=slo-feedback",
  };
  for (size_t i = 0; i < points.size(); i++) {
    EXPECT_EQ(points[i].name, expected_names[i]) << "point " << i;
  }

  // The plotgroup drops the policy axis (points in a group are the same
  // experiment under different policies); the plotkey is the policy.
  EXPECT_EQ(points[0].plotgroup, "users=1e+06,cap=1000w,shape=constant");
  EXPECT_EQ(points[0].plotkey, "static");
  EXPECT_EQ(points[1].plotgroup, points[0].plotgroup);
  EXPECT_EQ(points[1].plotkey, "slo-feedback");
  EXPECT_NE(points[2].plotgroup, points[0].plotgroup);

  // Axis values land in the FleetConfig the runner executes.
  EXPECT_EQ(points[0].fleet.users, 1e6);
  EXPECT_EQ(points[4].fleet.users, 2e6);
  EXPECT_EQ(points[0].fleet.budget_w, Watts{1000.0});
  EXPECT_EQ(points[0].fleet.shape, ArrivalShape::kConstant);
  EXPECT_EQ(points[2].fleet.shape, ArrivalShape::kDiurnal);
  EXPECT_EQ(points[0].fleet.arbiter, RackArbiterKind::kShares);
  EXPECT_FALSE(points[0].fleet.priority_hot);
  EXPECT_EQ(points[1].fleet.arbiter, RackArbiterKind::kSloFeedback);
}

TEST(SweepExpansion, PriorityPolicySetsHotBoost) {
  SweepSpec spec;
  spec.name = "p";
  spec.axes.fleet_policies = {FleetPolicyPriority()};
  const std::vector<SweepPoint> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].fleet.priority_hot);
  EXPECT_EQ(points[0].fleet.arbiter, RackArbiterKind::kShares);
  EXPECT_EQ(points[0].plotkey, "priority");
}

TEST(SweepExpansion, EmptyAxesYieldSinglePointFromBase) {
  SweepSpec spec;
  spec.name = "solo";
  spec.fleet_base.users = 5e6;
  spec.fleet_base.budget_w = Watts{123.0};
  const std::vector<SweepPoint> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 1u);
  // Unswept axes don't appear in the name; the default policy list is
  // static shares.
  EXPECT_EQ(points[0].name, "solo/policy=static");
  EXPECT_EQ(points[0].plotgroup, "");
  EXPECT_EQ(points[0].fleet.users, 5e6);
  EXPECT_EQ(points[0].fleet.budget_w, Watts{123.0});
}

TEST(SweepExpansion, ScenarioTargetSetsPolicyAndLimit) {
  SweepSpec spec;
  spec.name = "sc";
  spec.target = SweepTarget::kScenario;
  spec.axes.caps_w = {Watts{40.0}, Watts{55.0}};
  spec.axes.policies = {PolicyKind::kRaplOnly, PolicyKind::kFrequencyShares};
  const std::vector<SweepPoint> points = ExpandSweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].scenario.limit_w, Watts{40.0});
  EXPECT_EQ(points[0].scenario.policy, PolicyKind::kRaplOnly);
  EXPECT_EQ(points[1].scenario.policy, PolicyKind::kFrequencyShares);
  EXPECT_EQ(points[2].scenario.limit_w, Watts{55.0});
  EXPECT_EQ(points[0].cap_w, Watts{40.0});
}

TEST(SweepExpansion, DeterministicAcrossCalls) {
  SweepSpec spec;
  spec.name = "d";
  spec.axes.users = {1e6, 3e6, 2e6};  // Order is preserved, not sorted.
  const std::vector<SweepPoint> a = ExpandSweep(spec);
  const std::vector<SweepPoint> b = ExpandSweep(spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].name, b[i].name);
  }
  EXPECT_EQ(a[0].fleet.users, 1e6);
  EXPECT_EQ(a[1].fleet.users, 3e6);
  EXPECT_EQ(a[2].fleet.users, 2e6);
}

// --- Execution ---------------------------------------------------------------

// EXPECT_EQ on doubles is exact: the runs must agree bitwise.
void ExpectSameSummary(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.avg_pkg_w, b.avg_pkg_w);
  EXPECT_EQ(a.max_pkg_w, b.max_pkg_w);
  EXPECT_EQ(a.measured_s, b.measured_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p90_latency, b.p90_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (size_t i = 0; i < a.apps.size(); i++) {
    EXPECT_EQ(a.apps[i].name, b.apps[i].name);
    EXPECT_EQ(a.apps[i].avg_ips, b.apps[i].avg_ips);
    EXPECT_EQ(a.apps[i].norm_perf, b.apps[i].norm_perf);
    EXPECT_EQ(a.apps[i].avg_active_mhz, b.apps[i].avg_active_mhz);
    EXPECT_EQ(a.apps[i].avg_core_w, b.apps[i].avg_core_w);
  }
}

// A scenario sweep equals RunScenarios over ExpandSweep's configs, and a
// fleet sweep equals RunFleet point by point, whether the sweep runs on a
// pool or on the caller.
TEST(SweepRun, MatchesItsParts) {
  SweepSpec scenarios;
  scenarios.name = "sc";
  scenarios.target = SweepTarget::kScenario;
  scenarios.scenario_base.apps = ShareSplitMix(10, 70.0, 30.0).apps;
  scenarios.scenario_base.limit_w = Watts{45.0};
  scenarios.scenario_base.warmup_s = Seconds{2.0};
  scenarios.scenario_base.measure_s = Seconds{3.0};
  scenarios.axes.policies = {PolicyKind::kRaplOnly, PolicyKind::kFrequencyShares};
  std::vector<ScenarioConfig> configs;
  for (const SweepPoint& p : ExpandSweep(scenarios)) {
    configs.push_back(p.scenario);
  }
  const std::vector<ScenarioResult> scenario_parts = RunScenarios(configs, nullptr);

  // Four sockets at the 256-socket default's per-socket load.
  SweepSpec fleets;
  fleets.name = "fl";
  fleets.target = SweepTarget::kFleet;
  fleets.fleet_base.rows = 1;
  fleets.fleet_base.racks_per_row = 2;
  fleets.fleet_base.sockets_per_rack = 2;
  fleets.fleet_base.users = 6.13e6 / 4.0;
  fleets.fleet_base.seed = 7;
  fleets.fleet_warmup_s = Seconds{2.0};
  fleets.fleet_measure_s = Seconds{3.0};
  fleets.axes.fleet_policies = {FleetPolicyStatic(), FleetPolicySloFeedback()};
  std::vector<FleetResult> fleet_parts;
  for (const SweepPoint& p : ExpandSweep(fleets)) {
    fleet_parts.push_back(RunFleet(p.fleet, fleets.fleet_warmup_s, fleets.fleet_measure_s));
  }

  ThreadPool pool(2);
  for (ThreadPool* on : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(on != nullptr ? "pool" : "caller");
    const SweepResult sc = RunSweep(scenarios, on);
    ASSERT_EQ(sc.points.size(), scenario_parts.size());
    for (size_t i = 0; i < sc.points.size(); i++) {
      SCOPED_TRACE(sc.points[i].point.name);
      ExpectSameSummary(sc.points[i].summary, scenario_parts[i]);
    }

    const SweepResult fl = RunSweep(fleets, on);
    ASSERT_EQ(fl.points.size(), fleet_parts.size());
    for (size_t i = 0; i < fl.points.size(); i++) {
      SCOPED_TRACE(fl.points[i].point.name);
      const FleetResult& part = fleet_parts[i];
      ExpectSameSummary(fl.points[i].summary, part.summary);
      EXPECT_EQ(fl.points[i].total_slo_violations, part.total_slo_violations);
      EXPECT_EQ(fl.points[i].total_measured_periods, part.total_measured_periods);
      EXPECT_EQ(fl.points[i].max_grant_overrun_w, part.max_grant_overrun_w);
      ASSERT_EQ(fl.points[i].sockets.size(), part.sockets.size());
      for (size_t s = 0; s < part.sockets.size(); s++) {
        const FleetSocketResult& got = fl.points[i].sockets[s];
        const FleetSocketResult& want = part.sockets[s];
        EXPECT_EQ(got.node, want.node);
        EXPECT_EQ(got.grant_w, want.grant_w);
        EXPECT_EQ(got.p90, want.p90);
        EXPECT_EQ(got.completed, want.completed);
        EXPECT_EQ(got.arrivals, want.arrivals);
        EXPECT_EQ(got.slo_violation_periods, want.slo_violation_periods);
      }
    }
  }
}

// --- JSON artifact -----------------------------------------------------------

// tests/data/fleet_sweep_sample.json, the artifact `papdctl fleet`'s ctests
// and EXPERIMENTS.md read, is this spec's output byte for byte: the
// 16-socket miniature fleet at the 256-socket default's per-socket load,
// static against slo-feedback, 4 s warmup and 8 s measured.  On a mismatch
// the fresh artifact is written to the test's working directory; copy it
// over the sample when the change in the numbers is intended.
TEST(SweepJson, SampleArtifactMatchesItsPinnedSpec) {
  SweepSpec spec;
  spec.name = "probe";
  spec.target = SweepTarget::kFleet;
  spec.fleet_base.rows = 2;
  spec.fleet_base.racks_per_row = 2;
  spec.fleet_base.sockets_per_rack = 4;
  spec.fleet_base.users = 6.13e6;
  spec.fleet_base.seed = 7;
  spec.fleet_warmup_s = Seconds{4.0};
  spec.fleet_measure_s = Seconds{8.0};
  spec.axes.fleet_policies = {FleetPolicyStatic(), FleetPolicySloFeedback()};
  const SweepResult result = RunSweep(spec, nullptr);

  std::ifstream in(PAPD_TEST_DATA_DIR "/fleet_sweep_sample.json", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream sample;
  sample << in.rdbuf();
  const std::string fresh = SweepResultToJson(result);
  if (fresh != sample.str()) {
    WriteSweepJson(result, "fleet_sweep_sample.json");
    ADD_FAILURE() << "the sample differs from its spec's output; the fresh artifact is "
                     "fleet_sweep_sample.json in the working directory";
  }
}

// A synthetic result (no fleet run needed) must serialize to JSON that the
// repo's own parser — the one `papdctl fleet` uses — reads back exactly.
TEST(SweepJson, RoundTripsThroughOwnParser) {
  SweepResult result;
  result.name = "rt \"quoted\"";
  result.target = SweepTarget::kFleet;

  SweepPointResult p;
  p.point.name = "rt/policy=static";
  p.point.plotgroup = "users=1e+06";
  p.point.plotkey = "static";
  p.point.users = 1e6;
  p.point.cap_w = Watts{1000.0};
  p.point.shape = ArrivalShape::kConstant;
  p.point.policy = "static";
  p.summary.avg_pkg_w = Watts{604.25};
  p.summary.max_pkg_w = Watts{640.5};
  p.summary.measured_s = Seconds{10.0};
  p.summary.energy_j = Joules{6042.5};
  p.summary.p50_latency = Seconds{0.0425};
  p.summary.p90_latency = Seconds{0.151};
  p.summary.p99_latency = Seconds{0.48};
  p.summary.completed_requests = 11356;
  p.total_slo_violations = 14;
  p.total_measured_periods = 128;
  p.max_grant_overrun_w = Watts{0.0};
  FleetSocketResult sock;
  sock.node = 3;
  sock.path = "dc/row0/rack0/socket0";
  sock.hot = true;
  sock.grant_w = Watts{53.7};
  sock.p90 = Seconds{0.338};
  sock.completed = 1269;
  sock.arrivals = 1300;
  sock.slo_violation_periods = 4;
  sock.measured_periods = 8;
  sock.peak_queue_depth = 66;
  p.sockets.push_back(sock);
  result.points.push_back(std::move(p));

  const std::string text = SweepResultToJson(result);
  const json::ParseResult parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;

  const json::Value& doc = parsed.value;
  EXPECT_EQ(doc.StringOr("sweep", ""), "rt \"quoted\"");
  EXPECT_EQ(doc.StringOr("target", ""), "fleet");
  const json::Value* points = doc.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_TRUE(points->is_array());
  ASSERT_EQ(points->AsArray().size(), 1u);

  const json::Value& jp = points->AsArray()[0];
  EXPECT_EQ(jp.StringOr("name", ""), "rt/policy=static");
  EXPECT_EQ(jp.StringOr("plotkey", ""), "static");
  EXPECT_DOUBLE_EQ(jp.NumberOr("users", 0.0), 1e6);
  EXPECT_DOUBLE_EQ(jp.NumberOr("total_slo_violations", -1.0), 14.0);
  EXPECT_DOUBLE_EQ(jp.NumberOr("total_measured_periods", -1.0), 128.0);

  const json::Value* summary = jp.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->NumberOr("avg_pkg_w", 0.0), 604.25);
  EXPECT_DOUBLE_EQ(summary->NumberOr("completed_requests", 0.0), 11356.0);
  EXPECT_NEAR(summary->NumberOr("p90_latency_s", 0.0), 0.151, 1e-9);

  const json::Value* sockets = jp.Find("sockets");
  ASSERT_NE(sockets, nullptr);
  ASSERT_EQ(sockets->AsArray().size(), 1u);
  const json::Value& js = sockets->AsArray()[0];
  EXPECT_EQ(js.StringOr("path", ""), "dc/row0/rack0/socket0");
  const json::Value* hot = js.Find("hot");
  ASSERT_NE(hot, nullptr);
  EXPECT_TRUE(hot->AsBool());
  EXPECT_NEAR(js.NumberOr("grant_w", 0.0), 53.7, 1e-9);
  EXPECT_DOUBLE_EQ(js.NumberOr("peak_queue_depth", 0.0), 66.0);
}

TEST(SweepJson, ScenarioPointsCarryNoFleetDetail) {
  SweepResult result;
  result.name = "sc";
  result.target = SweepTarget::kScenario;
  SweepPointResult p;
  p.point.name = "sc/policy=rapl";
  p.point.policy = "rapl";
  p.summary.avg_pkg_w = Watts{44.0};
  result.points.push_back(std::move(p));

  const json::ParseResult parsed = json::Parse(SweepResultToJson(result));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const json::Value& jp = parsed.value.Find("points")->AsArray()[0];
  EXPECT_EQ(jp.Find("sockets"), nullptr);
  EXPECT_EQ(jp.Find("total_slo_violations"), nullptr);
}

// Records longer than any fixed format buffer are written whole.
TEST(SweepJson, LongNamesRoundTrip) {
  SweepResult result;
  result.name = std::string(600, 's');
  result.target = SweepTarget::kScenario;
  SweepPointResult p;
  p.point.name = std::string(600, 'p');
  p.point.policy = "rapl";
  result.points.push_back(std::move(p));

  const json::ParseResult parsed = json::Parse(SweepResultToJson(result));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.StringOr("sweep", ""), std::string(600, 's'));
  const json::Value& jp = parsed.value.Find("points")->AsArray()[0];
  EXPECT_EQ(jp.StringOr("name", ""), std::string(600, 'p'));
  EXPECT_EQ(jp.StringOr("policy", ""), "rapl");
}

// An artifact that did not reach the disk aborts the run, as an unopenable
// path always did.
TEST(SweepJsonDeathTest, FailedWriteAborts) {
  SweepResult result;
  result.name = "sc";
  result.target = SweepTarget::kScenario;
  EXPECT_DEATH(WriteSweepJson(result, "/dev/full"), "cannot write.*/dev/full");
}

}  // namespace
}  // namespace papd
