// Serving-fleet tests: open-loop arrival determinism across thread counts,
// SloFeedbackArbiter convergence/hysteresis, and the cap invariant as a
// property over a full feedback run.
//
// The fleets here are miniatures (4-16 sockets, seconds of simulated time)
// of the 256-socket default regime; the knobs scale the offered load so the
// per-socket physics match the calibrated defaults (see FleetConfig).  The
// feedback-vs-static headline also runs the 256-socket default itself.

#include "src/cluster/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/obs/trace.h"
#include "src/policy/slo_feedback.h"

namespace papd {
namespace {

// 16 sockets with the same per-socket offered load as the 256-socket bench
// default (users scale linearly with the weighted socket count).
FleetConfig MiniatureFleet() {
  FleetConfig cfg;
  cfg.rows = 2;
  cfg.racks_per_row = 2;
  cfg.sockets_per_rack = 4;
  cfg.users = 6.13e6;
  cfg.seed = 7;
  return cfg;
}

// --- Open-loop arrival determinism -------------------------------------------

// The sticky population shard keeps sockets share-nothing, so the arrival
// process on every socket must be bit-identical no matter how leaf stepping
// is scheduled: serial, or racing across any number of pool threads.
TEST(FleetDeterminism, ArrivalsIdenticalAcrossThreadCounts) {
  constexpr int kSteps = 6;

  auto run = [](ThreadPool* pool) {
    FleetConfig cfg = MiniatureFleet();
    cfg.record_arrivals = true;
    Fleet fleet(cfg);
    for (int i = 0; i < kSteps; i++) {
      fleet.Step(pool);
    }
    std::vector<std::vector<Seconds>> arrivals;
    std::vector<std::vector<Seconds>> latencies;
    for (int node : fleet.leaf_nodes()) {
      SocketStack& stack = fleet.tree().stack(node);
      EXPECT_NE(stack.websearch, nullptr);
      arrivals.push_back(stack.websearch->arrival_log());
      latencies.push_back(stack.websearch->latencies());
    }
    return std::make_pair(arrivals, latencies);
  };

  const auto serial = run(nullptr);
  ThreadPool pool2(2);
  const auto threaded2 = run(&pool2);
  ThreadPool pool8(8);
  const auto threaded8 = run(&pool8);

  ASSERT_EQ(serial.first.size(), threaded2.first.size());
  for (size_t s = 0; s < serial.first.size(); s++) {
    // Bitwise equality, not approximate: the RNG stream is per-socket and
    // the simulation must not depend on scheduling.
    EXPECT_EQ(serial.first[s], threaded2.first[s]) << "socket " << s;
    EXPECT_EQ(serial.first[s], threaded8.first[s]) << "socket " << s;
    EXPECT_EQ(serial.second[s], threaded2.second[s]) << "socket " << s;
    EXPECT_EQ(serial.second[s], threaded8.second[s]) << "socket " << s;
  }
}

TEST(FleetDeterminism, SeedChangesArrivals) {
  FleetConfig cfg = MiniatureFleet();
  cfg.record_arrivals = true;
  Fleet a(cfg);
  cfg.seed = cfg.seed + 1;
  Fleet b(cfg);
  for (int i = 0; i < 3; i++) {
    a.Step();
    b.Step();
  }
  SocketStack& sa = a.tree().stack(a.leaf_nodes()[0]);
  SocketStack& sb = b.tree().stack(b.leaf_nodes()[0]);
  EXPECT_NE(sa.websearch->arrival_log(), sb.websearch->arrival_log());
}

// The open-loop process must deliver the configured rate: users *
// requests_per_user_per_day / 86400, within Poisson noise.
TEST(FleetOpenLoop, ArrivalRateMatchesConfiguredLoad) {
  FleetConfig cfg = MiniatureFleet();
  cfg.hot_fraction = 0.0;  // Uniform: every socket offers the same rate.
  Fleet fleet(cfg);
  constexpr int kSteps = 20;
  for (int i = 0; i < kSteps; i++) {
    fleet.Step();
  }
  const double per_socket_rps =
      cfg.users / 16.0 * cfg.requests_per_user_per_day / 86400.0;
  uint64_t total = 0;
  for (int node : fleet.leaf_nodes()) {
    total += fleet.tree().stack(node).websearch->arrivals();
  }
  const double expected = per_socket_rps * 16.0 * kSteps;
  // 16 sockets x 20 s of Poisson arrivals: 5 sigma is well under 2%.
  EXPECT_NEAR(static_cast<double>(total), expected, 0.02 * expected);
}

TEST(FleetOpenLoop, DiurnalShapeModulatesArrivals) {
  FleetConfig cfg = MiniatureFleet();
  cfg.rows = 1;
  cfg.racks_per_row = 1;
  cfg.sockets_per_rack = 2;
  cfg.users = 6.13e6 / 8.0;
  cfg.hot_fraction = 0.0;
  cfg.shape = ArrivalShape::kDiurnal;
  cfg.diurnal_amplitude = 0.9;
  cfg.diurnal_period_s = Seconds{20.0};  // Compressed day: peak at t=5, trough at t=15.
  Fleet fleet(cfg);

  uint64_t before = 0;
  auto arrivals_now = [&fleet]() {
    uint64_t total = 0;
    for (int node : fleet.leaf_nodes()) {
      total += fleet.tree().stack(node).websearch->arrivals();
    }
    return total;
  };
  uint64_t peak_half = 0;
  uint64_t trough_half = 0;
  for (int i = 0; i < 20; i++) {
    fleet.Step();
    const uint64_t now = arrivals_now();
    if (i < 10) {
      peak_half += now - before;
    } else {
      trough_half += now - before;
    }
    before = now;
  }
  // With amplitude 0.9 the first half-period carries several times the
  // arrivals of the second.
  EXPECT_GT(static_cast<double>(peak_half), 1.5 * static_cast<double>(trough_half));
}

// --- SloFeedbackArbiter dynamics ---------------------------------------------

TEST(SloFeedbackArbiter, ConvergesToMaxBiasUnderPersistentViolation) {
  SloFeedbackOptions opt;
  opt.max_bias = 4.0;
  SloFeedbackArbiter arbiter(opt);
  arbiter.Resize(1);

  // The arbiter's fixed step is 25%: log(4) / log(1.25) = 6.2, so the bias
  // must saturate on the 7th update.
  const int expected_periods =
      static_cast<int>(std::ceil(std::log(opt.max_bias) / std::log(1.25)));
  std::vector<double> violating{1.0};
  for (int i = 0; i < expected_periods; i++) {
    EXPECT_LT(arbiter.bias(0), opt.max_bias);
    arbiter.Update(violating);
  }
  EXPECT_DOUBLE_EQ(arbiter.bias(0), opt.max_bias);
  // Saturated: further violation reports are no-ops.
  EXPECT_EQ(arbiter.Update(violating), 0);
  EXPECT_DOUBLE_EQ(arbiter.bias(0), opt.max_bias);
}

TEST(SloFeedbackArbiter, DecaysToExactlyOneAfterRecovery) {
  SloFeedbackArbiter arbiter;
  arbiter.Resize(1);
  std::vector<double> violating{1.0};
  std::vector<double> recovered{0.0};
  for (int i = 0; i < 10; i++) {
    arbiter.Update(violating);
  }
  EXPECT_GT(arbiter.bias(0), 1.0);
  for (int i = 0; i < 200; i++) {
    arbiter.Update(recovered);
  }
  // Lands exactly on 1.0 (not asymptotically close): recovered shards get
  // their configured shares back verbatim.
  EXPECT_EQ(arbiter.bias(0), 1.0);
  EXPECT_EQ(arbiter.Update(recovered), 0);
}

TEST(SloFeedbackArbiter, ReleaseIsSlowerThanAttack) {
  SloFeedbackArbiter arbiter;  // Step 0.25, release 0.0625.
  arbiter.Resize(1);
  std::vector<double> violating{1.0};
  std::vector<double> recovered{0.0};
  int up_periods = 0;
  while (arbiter.Update(violating) > 0) {
    up_periods++;
  }
  int down_periods = 0;
  while (arbiter.Update(recovered) > 0) {
    down_periods++;
  }
  EXPECT_GT(down_periods, 2 * up_periods);
}

TEST(SloFeedbackArbiter, HysteresisBandHolds) {
  SloFeedbackArbiter arbiter;  // Band: (0.25, 0.5).
  arbiter.Resize(1);
  arbiter.Update({1.0});
  const double boosted = arbiter.bias(0);
  EXPECT_GT(boosted, 1.0);
  // Fractions inside (exit, enter) neither boost nor decay, however long
  // they persist — this is what keeps interior tree nodes from flapping.
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ(arbiter.Update({0.4}), 0);
  }
  EXPECT_DOUBLE_EQ(arbiter.bias(0), boosted);
}

TEST(SloFeedbackArbiter, BiasesStayWithinConfiguredBounds) {
  SloFeedbackOptions opt;
  opt.max_bias = 3.0;
  SloFeedbackArbiter arbiter(opt);
  arbiter.Resize(3);
  // Deterministic pseudo-random violation fractions.
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) / static_cast<double>(1 << 24);
  };
  for (int i = 0; i < 500; i++) {
    arbiter.Update({next(), next(), next()});
    for (size_t n = 0; n < arbiter.size(); n++) {
      EXPECT_GE(arbiter.bias(n), 1.0);  // Biases only ever boost.
      EXPECT_LE(arbiter.bias(n), opt.max_bias);
    }
  }
}

// --- Feedback fleet properties -----------------------------------------------

// The cap invariant must hold *structurally* under feedback: however the
// biases move the proportions, no arbitration may hand children more than
// their parent's grant.  Checked per step, not just at collection.
TEST(FleetSloFeedback, CapInvariantHoldsUnderBiasedSplits) {
  FleetConfig cfg = MiniatureFleet();
  cfg.arbiter = RackArbiterKind::kSloFeedback;
  Fleet fleet(cfg);
  for (int i = 0; i < 12; i++) {
    fleet.Step();
    EXPECT_LE(fleet.tree().max_grant_overrun_w().value(), 1e-6) << "step " << i;
    for (int n = 0; n < fleet.tree().num_nodes(); n++) {
      EXPECT_GE(fleet.share_bias(n), 1.0);
      EXPECT_LE(fleet.share_bias(n), cfg.slo.max_bias);
    }
  }
  const FleetResult result = fleet.Collect();
  EXPECT_LE(result.max_grant_overrun_w.value(), 1e-6);
}

// Hot shards violate, so their biases must rise above neutral while a
// fully-satisfied cold subtree stays at 1.0.
TEST(FleetSloFeedback, BiasMovesTowardViolatingShards) {
  FleetConfig cfg = MiniatureFleet();
  cfg.arbiter = RackArbiterKind::kSloFeedback;
  Fleet fleet(cfg);
  for (int i = 0; i < 8; i++) {
    fleet.Step();
  }
  double hot_max_bias = 1.0;
  double cold_max_bias = 1.0;
  for (int s = 0; s < fleet.num_sockets(); s++) {
    const double b = fleet.share_bias(fleet.leaf_nodes()[static_cast<size_t>(s)]);
    if (fleet.socket_hot(s)) {
      hot_max_bias = std::max(hot_max_bias, b);
    } else {
      cold_max_bias = std::max(cold_max_bias, b);
    }
  }
  EXPECT_GT(hot_max_bias, 1.0);
  EXPECT_GE(hot_max_bias, cold_max_bias);
}

// A feedback fleet with a sink emits a kSloShift event for each node whose
// bias moved: index and shard name the node, code is its tree level, and
// the payload is the bias after the move.  Nothing else sets the sink, so
// this is the emission path's only run.
TEST(FleetSloFeedback, ShiftEventsNameMovedNodes) {
  obs::TraceRecorder recorder;
  FleetConfig cfg = MiniatureFleet();
  cfg.arbiter = RackArbiterKind::kSloFeedback;
  cfg.obs = &recorder;
  Fleet fleet(cfg);
  for (int i = 0; i < 8; i++) {
    fleet.Step();
  }
  const BudgetTree& tree = fleet.tree();
  int shifts = 0;
  for (const obs::TraceEvent& e : recorder.Drain()) {
    if (e.type != obs::TraceEventType::kSloShift) {
      continue;
    }
    shifts++;
    ASSERT_GE(e.index, 0);
    ASSERT_LT(e.index, tree.num_nodes());
    EXPECT_EQ(e.shard, static_cast<int16_t>(e.index));
    EXPECT_EQ(e.code, tree.level(e.index));
    EXPECT_GE(e.a, 1.0);
    EXPECT_LE(e.a, FleetConfig::slo.max_bias);
  }
  EXPECT_GT(shifts, 0) << "the feedback arbiter never moved a bias";
}

// The headline: at the same cluster cap, closing the loop strictly reduces
// violating socket-periods vs static shares, and both policies hold the cap
// invariant.  Seeded simulation, so this is exact, not statistical.  Two
// inputs: the miniature, and the flagship default fleet (256 sockets, 1e8
// users, seed 42) over 6 s warmup + 14 s measured, where static shares
// record 433 violations and SLO feedback 282.
TEST(FleetSloFeedback, BeatsStaticSharesAtSameCap) {
  struct Input {
    const char* name;
    FleetConfig cfg;
    Seconds warmup_s;
    Seconds measure_s;
  };
  const FleetConfig flagship;
  ASSERT_GE(FleetSockets(flagship), 256);
  ASSERT_GE(flagship.users, 1e6);
  const Input inputs[] = {
      {"miniature", MiniatureFleet(), Seconds{4.0}, Seconds{10.0}},
      {"flagship", flagship, Seconds{6.0}, Seconds{14.0}},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const auto run = [&in](RackArbiterKind arbiter) {
      FleetConfig cfg = in.cfg;
      cfg.arbiter = arbiter;
      return RunFleet(cfg, in.warmup_s, in.measure_s);
    };
    const FleetResult with_static = run(RackArbiterKind::kShares);
    const FleetResult with_feedback = run(RackArbiterKind::kSloFeedback);
    EXPECT_LT(with_feedback.total_slo_violations, with_static.total_slo_violations);
    // The regime must actually stress the cap.
    EXPECT_GT(with_static.total_slo_violations, 0u);
    EXPECT_LE(with_static.max_grant_overrun_w, Watts{1e-6});
    EXPECT_LE(with_feedback.max_grant_overrun_w, Watts{1e-6});
  }
}

TEST(FleetResultReporting, CollectsPerSocketDetail) {
  FleetConfig cfg = MiniatureFleet();
  const FleetResult r = RunFleet(cfg, Seconds{2.0}, Seconds{4.0});
  ASSERT_EQ(r.sockets.size(), 16u);
  EXPECT_EQ(r.simulated_users, cfg.users);
  EXPECT_GT(r.summary.completed_requests, 0u);
  EXPECT_GT(r.summary.avg_pkg_w.value(), 0.0);
  EXPECT_GT(r.summary.p90_latency, Seconds{0.0});
  size_t hot_seen = 0;
  for (const FleetSocketResult& s : r.sockets) {
    EXPECT_FALSE(s.path.empty());
    EXPECT_GT(s.grant_w.value(), 0.0);
    EXPECT_GT(s.completed, 0u);
    hot_seen += s.hot ? 1u : 0u;
  }
  EXPECT_EQ(hot_seen, 2u);  // round(0.125 * 16).
}

// The per-socket latency histograms cover the measured window only, like
// every other stat Collect reports: ResetStats drops the warmup samples.
TEST(FleetResultReporting, LatencyHistogramsExcludeWarmup) {
  const FleetResult r = RunFleet(MiniatureFleet(), Seconds{4.0}, Seconds{10.0});
  int histograms = 0;
  uint64_t samples = 0;
  for (const obs::MetricValue& m : r.summary.metrics) {
    if (m.kind == obs::MetricValue::Kind::kHistogram) {
      ++histograms;
      samples += m.count;
    }
  }
  EXPECT_EQ(histograms, 16);
  EXPECT_EQ(samples, r.summary.completed_requests);
}

// Arrivals, like completions, count the measured window only: ResetStats
// marks each socket's arrival count, so the warmup's requests are not
// reported.  The fleet's offered load is users x requests/user/day spread
// over the day, so a 4 s window offers ~5676 requests across 16 sockets.
TEST(FleetResultReporting, ArrivalsExcludeWarmup) {
  const FleetConfig cfg = MiniatureFleet();
  const Seconds kMeasure{4.0};
  const FleetResult r = RunFleet(cfg, Seconds{4.0}, kMeasure);
  uint64_t arrivals = 0;
  for (const FleetSocketResult& s : r.sockets) {
    arrivals += s.arrivals;
  }
  const double offered =
      cfg.users * FleetConfig::requests_per_user_per_day / 86400.0 * kMeasure.value();
  EXPECT_NEAR(static_cast<double>(arrivals), offered, 0.05 * offered);
}

// Collect selects its percentiles in place across the sockets' latency
// logs; per socket and fleet-wide they must equal a sort of the samples.
TEST(FleetResultReporting, PercentilesMatchSortedLatencies) {
  FleetConfig cfg = MiniatureFleet();
  Fleet fleet(cfg);
  for (int p = 0; p < 6; p++) {
    fleet.Step();
  }
  const FleetResult r = fleet.Collect();
  std::vector<double> all;
  for (const FleetSocketResult& s : r.sockets) {
    std::vector<double> own;
    for (Seconds l : fleet.tree().stack(s.node).websearch->latencies()) {
      own.push_back(l.value());
    }
    all.insert(all.end(), own.begin(), own.end());
    EXPECT_EQ(s.p50.value(), Percentile(own, 50.0)) << s.path;
    EXPECT_EQ(s.p90.value(), Percentile(own, 90.0)) << s.path;
    EXPECT_EQ(s.p99.value(), Percentile(own, 99.0)) << s.path;
  }
  // More samples than one selection bucket, so the radix passes run.
  ASSERT_GT(all.size(), 4096u);
  EXPECT_EQ(r.summary.p50_latency.value(), Percentile(all, 50.0));
  EXPECT_EQ(r.summary.p90_latency.value(), Percentile(all, 90.0));
  EXPECT_EQ(r.summary.p99_latency.value(), Percentile(all, 99.0));
}

}  // namespace
}  // namespace papd
