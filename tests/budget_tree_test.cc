// Budget-tree tests.
//
// The load-bearing invariant: at EVERY tree level, on EVERY period of EVERY
// run — including under cluster faults — the sum of a node's children's
// grants never exceeds the node's own grant, and the root never exceeds the
// cluster budget (whenever the budget covers the root floor).  Also covers
// the fault ladder (telemetry hold/decay, breaker revocation + recovery),
// bit-identical parallel/serial execution, derived bound bubbling, and the
// per-level kClusterGrant trace stream.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "src/cluster/budget_tree.h"
#include "src/common/thread_pool.h"
#include "src/experiments/scenarios.h"
#include "src/obs/trace.h"
#include "src/platform/platform_spec.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

RackSocketConfig MakeSocket(int rotate, uint64_t seed) {
  RackSocketConfig cfg{.platform = SkylakeXeon4114()};
  cfg.apps = ManyCoreSpreadMix(cfg.platform.num_cores, rotate).apps;
  cfg.policy = PolicyKind::kFrequencyShares;
  cfg.seed = seed;
  cfg.use_baseline_ips = false;
  return cfg;
}

// 2 rows x 2 racks x 2 sockets = 8 leaves, 15 nodes, 4 levels.
BudgetTreeConfig MakeCluster(Watts budget_w) {
  BudgetTreeConfig cfg =
      MakeUniformCluster(/*rows=*/2, /*racks_per_row=*/2, /*sockets_per_rack=*/2,
                         MakeSocket(/*rotate=*/0, /*seed=*/42), budget_w);
  return cfg;
}

// Asserts the cap invariant at every node of the tree's current state.
void ExpectCapInvariant(const BudgetTree& tree, Watts budget_w, const char* context) {
  if (budget_w >= tree.floor_w(0)) {
    EXPECT_LE(tree.grant_w(0), budget_w + Watts{1e-9}) << context;
  }
  for (int n = 0; n < tree.num_nodes(); n++) {
    EXPECT_GE(tree.grant_w(n), tree.floor_w(n) - Watts{1e-9}) << context << " node " << n;
    if (!tree.is_leaf(n)) {
      EXPECT_LE(tree.grant_sum_w(n), tree.grant_w(n) + Watts{1e-9})
          << context << " node " << tree.node_path(n);
    }
  }
  EXPECT_LE(tree.max_grant_overrun_w(), Watts{1e-9}) << context;
}

TEST(BudgetTree, TopologyAndFindNode) {
  BudgetTree tree(MakeCluster(Watts{400.0}));
  EXPECT_EQ(tree.num_nodes(), 15);
  EXPECT_EQ(tree.num_leaves(), 8);
  EXPECT_EQ(tree.num_levels(), 4);
  const int leaf = tree.FindNode("dc/row1/rack0/socket1");
  ASSERT_GE(leaf, 0);
  EXPECT_TRUE(tree.is_leaf(leaf));
  EXPECT_EQ(tree.level(leaf), 3);
  const int rack = tree.parent(leaf);
  EXPECT_EQ(tree.node_path(rack), "dc/row1/rack0");
  EXPECT_EQ(tree.level(rack), 2);
  EXPECT_EQ(tree.parent(tree.parent(rack)), 0);  // row1 -> dc.
  EXPECT_EQ(tree.FindNode("dc"), 0);
  EXPECT_EQ(tree.FindNode("dc/row9"), -1);
  // Pre-order flattening: every child index follows its parent's.
  for (int n = 1; n < tree.num_nodes(); n++) {
    EXPECT_LT(tree.parent(n), n);
  }
}

TEST(BudgetTree, CapInvariantAtEveryLevelEveryPeriod) {
  for (const RackArbiterKind kind : {RackArbiterKind::kShares, RackArbiterKind::kDemand}) {
    BudgetTreeConfig cfg = MakeCluster(Watts{320.0});
    cfg.arbiter = kind;
    BudgetTree tree(cfg);
    ASSERT_GE(cfg.budget_w, tree.floor_w(0));
    // Initial split (before any period) already obeys the invariant.
    ExpectCapInvariant(tree, cfg.budget_w, "initial");
    for (int period = 0; period < 10; period++) {
      tree.Step();
      ExpectCapInvariant(tree, cfg.budget_w,
                         kind == RackArbiterKind::kShares ? "shares" : "demand");
    }
    EXPECT_EQ(tree.history().size(), 10u);
    EXPECT_EQ(tree.periods(), 10);
  }
}

TEST(BudgetTree, CapInvariantHoldsUnderFaults) {
  BudgetTreeConfig cfg = MakeCluster(Watts{320.0});
  cfg.arbiter = RackArbiterKind::kDemand;
  cfg.faults = {
      {ClusterFaultKind::kTelemetryStale, "dc/row0/rack0", /*start_period=*/1, /*periods=*/6},
      {ClusterFaultKind::kBreakerTrip, "dc/row1", /*start_period=*/3, /*periods=*/3},
      {ClusterFaultKind::kTelemetryStale, "dc/row1/rack1/socket0", /*start_period=*/4,
       /*periods=*/2},
  };
  BudgetTree tree(cfg);
  for (int period = 0; period < 12; period++) {
    tree.Step();
    ExpectCapInvariant(tree, cfg.budget_w, "faulted");
  }
}

TEST(BudgetTree, BreakerTripRevokesToFloorThenRecovers) {
  BudgetTreeConfig cfg = MakeCluster(Watts{400.0});
  cfg.faults = {{ClusterFaultKind::kBreakerTrip, "dc/row0", /*start_period=*/2, /*periods=*/3}};
  BudgetTree tree(cfg);
  const int row = tree.FindNode("dc/row0");
  ASSERT_GE(row, 0);

  tree.Step();  // Period 0: no fault; a 400 W budget leaves headroom.
  EXPECT_FALSE(tree.breaker_tripped(row));
  EXPECT_GT(tree.grant_w(row), tree.floor_w(row) + Watts{5.0});

  tree.Step();  // Period 1.
  tree.Step();  // Period 2: breaker trips; grant slashed to the floor.
  EXPECT_TRUE(tree.breaker_tripped(row));
  EXPECT_NEAR(tree.grant_w(row).value(), tree.floor_w(row).value(), 1e-6);
  // The subtree stays internally consistent at the reduced cap.
  EXPECT_LE(tree.grant_sum_w(row), tree.grant_w(row) + Watts{1e-9});

  tree.Step();  // Period 3: still tripped.
  EXPECT_TRUE(tree.breaker_tripped(row));
  tree.Step();  // Period 4: last tripped period.
  tree.Step();  // Period 5: recovered; headroom returns.
  EXPECT_FALSE(tree.breaker_tripped(row));
  EXPECT_GT(tree.grant_w(row), tree.floor_w(row) + Watts{5.0});
}

// The arbiter's stale ladder holds the last-good value for 3 periods, then
// halves it every period toward the floor.
TEST(BudgetTree, StaleTelemetryHoldsThenDecaysThenRecovers) {
  BudgetTreeConfig cfg = MakeCluster(Watts{320.0});
  const int kStart = 3;
  cfg.faults = {
      {ClusterFaultKind::kTelemetryStale, "dc/row0/rack0", kStart, /*periods=*/6}};
  BudgetTree tree(cfg);
  const int rack = tree.FindNode("dc/row0/rack0");
  ASSERT_GE(rack, 0);

  for (int period = 0; period < kStart; period++) {
    tree.Step();
    EXPECT_EQ(tree.stale_streak(rack), 0);
    EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(), tree.measured_w(rack).value());
  }
  // Last-good value frozen at the stale onset.
  const Watts last_good = tree.reported_w(rack);

  // Hold rungs: the arbiter trusts the frozen measurement.
  tree.Step();
  EXPECT_EQ(tree.stale_streak(rack), 1);
  EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(), last_good.value());
  // Staleness covers the whole subtree, not just the faulted node.
  for (int child : tree.children(rack)) {
    EXPECT_EQ(tree.stale_streak(child), 1);
  }
  tree.Step();
  EXPECT_EQ(tree.stale_streak(rack), 2);
  EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(), last_good.value());
  tree.Step();
  EXPECT_EQ(tree.stale_streak(rack), 3);
  EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(), last_good.value());

  // Decay rungs: geometric slide toward the floor.
  tree.Step();
  EXPECT_EQ(tree.stale_streak(rack), 4);
  EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(),
                   std::max(tree.floor_w(rack), last_good * 0.5).value());
  tree.Step();
  EXPECT_EQ(tree.stale_streak(rack), 5);
  EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(),
                   std::max(tree.floor_w(rack), last_good * 0.25).value());
  tree.Step();  // Streak 6 (last stale period).
  EXPECT_EQ(tree.stale_streak(rack), 6);
  EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(),
                   std::max(tree.floor_w(rack), last_good * 0.125).value());

  // Fault window ends after period kStart+5; fresh telemetry resumes.
  tree.Step();
  EXPECT_EQ(tree.stale_streak(rack), 0);
  EXPECT_DOUBLE_EQ(tree.reported_w(rack).value(), tree.measured_w(rack).value());
}

// FNV-1a over the full per-period state; any bitwise divergence between the
// serial and pooled runs changes the hash.
uint64_t HistoryChecksum(const BudgetTree& tree) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](Watts w) {
    uint64_t bits = 0;
    const double v = w.value();
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; b++) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  for (const BudgetTree::PeriodRecord& rec : tree.history()) {
    mix(Watts{rec.end_s.value()});
    for (Watts w : rec.grants_w) mix(w);
    for (Watts w : rec.measured_w) mix(w);
    for (Watts w : rec.reported_w) mix(w);
  }
  return hash;
}

TEST(BudgetTree, ParallelStepIsBitIdenticalToSerial) {
  BudgetTreeConfig cfg = MakeCluster(Watts{320.0});
  cfg.arbiter = RackArbiterKind::kDemand;
  BudgetTree serial(cfg);
  BudgetTreeConfig pcfg = MakeCluster(Watts{320.0});
  pcfg.arbiter = RackArbiterKind::kDemand;
  BudgetTree pooled(pcfg);
  ThreadPool pool(3);
  for (int period = 0; period < 6; period++) {
    serial.Step(nullptr);
    pooled.Step(&pool);
  }
  EXPECT_EQ(HistoryChecksum(serial), HistoryChecksum(pooled));
  for (int n = 0; n < serial.num_nodes(); n++) {
    EXPECT_DOUBLE_EQ(serial.grant_w(n).value(), pooled.grant_w(n).value());
    EXPECT_DOUBLE_EQ(serial.measured_w(n).value(), pooled.measured_w(n).value());
  }
}

uint64_t Bits(Watts w) { return std::bit_cast<uint64_t>(w.value()); }

// The pooled fan-out claims one live leaf per index, and the live-leaf list
// grows mid-run when a breaker trip splits a replica class.  A memoized tree
// stepped on a pool must match, bitwise and period by period, the same tree
// stepped serially and the twin that simulates every leaf.
TEST(BudgetTree, ParallelStepThroughMaterializationMatchesSerial) {
  const Watts kBudget{320.0};
  const auto make = [&kBudget](bool memoize) {
    BudgetTreeConfig cfg =
        MakeUniformCluster(/*rows=*/2, /*racks_per_row=*/2, /*sockets_per_rack=*/2,
                           MakeSocket(/*rotate=*/0, /*seed=*/42), kBudget,
                           /*decorrelate_seeds=*/false);
    cfg.tick.memoize_replicas = memoize;
    cfg.faults = {ClusterFault{ClusterFaultKind::kBreakerTrip, "dc/row0/rack0",
                               /*start_period=*/3, /*periods=*/3}};
    cfg.record_history = false;
    return cfg;
  };
  BudgetTree pooled(make(/*memoize=*/true));
  BudgetTree serial(make(/*memoize=*/true));
  BudgetTree full(make(/*memoize=*/false));
  ThreadPool pool(3);

  ASSERT_EQ(pooled.num_live_leaves(), 1);
  ASSERT_EQ(full.num_live_leaves(), full.num_leaves());
  int live = pooled.num_live_leaves();
  for (int period = 0; period < 10; period++) {
    pooled.Step(&pool);
    serial.Step(nullptr);
    full.Step(nullptr);
    for (int n = 0; n < pooled.num_nodes(); n++) {
      EXPECT_EQ(Bits(pooled.measured_w(n)), Bits(serial.measured_w(n)))
          << "period " << period << " node " << pooled.node_path(n);
      EXPECT_EQ(Bits(pooled.measured_w(n)), Bits(full.measured_w(n)))
          << "period " << period << " node " << pooled.node_path(n);
      EXPECT_EQ(Bits(pooled.grant_w(n)), Bits(full.grant_w(n)))
          << "period " << period << " node " << pooled.node_path(n);
    }
    EXPECT_EQ(pooled.num_live_leaves(), serial.num_live_leaves()) << "period " << period;
    EXPECT_GE(pooled.num_live_leaves(), live) << "period " << period;
    live = pooled.num_live_leaves();
  }
  // The trip revoked the faulted rack's headroom, so its replicas
  // materialized and joined the fan-out.
  EXPECT_GT(live, 1) << "fault never forced materialization";
  EXPECT_LE(live, pooled.num_leaves());
}

TEST(BudgetTree, SingleLeafDegenerateTree) {
  BudgetTreeConfig cfg;
  cfg.root.name = "solo";
  cfg.root.socket = MakeSocket(/*rotate=*/0, /*seed=*/7);
  cfg.budget_w = Watts{100.0};
  BudgetTree tree(cfg);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.num_leaves(), 1);
  EXPECT_EQ(tree.num_levels(), 1);
  for (int period = 0; period < 3; period++) {
    tree.Step();
    // Childless root: grant = budget clamped into [floor, ceiling].
    EXPECT_GE(tree.grant_w(0), tree.floor_w(0) - Watts{1e-9});
    EXPECT_LE(tree.grant_w(0), tree.ceiling_w(0) + Watts{1e-9});
    EXPECT_GT(tree.measured_w(0), Watts{0.0});
  }
}

// A pure chain — every interior node has exactly one child — is the
// degenerate split: each arbitration hands the whole (clamped) grant down,
// so grants are equal along the chain and the cap invariant is tight.
TEST(BudgetTree, OneChildInteriorChain) {
  BudgetTreeConfig cfg;
  cfg.root.name = "dc";
  cfg.root.children.emplace_back();
  cfg.root.children[0].name = "row0";
  cfg.root.children[0].children.emplace_back();
  cfg.root.children[0].children[0].name = "rack0";
  cfg.root.children[0].children[0].children.emplace_back();
  BudgetNodeConfig& leaf = cfg.root.children[0].children[0].children[0];
  leaf.name = "socket0";
  leaf.socket = MakeSocket(/*rotate=*/0, /*seed=*/11);
  cfg.budget_w = Watts{120.0};
  BudgetTree tree(cfg);
  EXPECT_EQ(tree.num_nodes(), 4);
  EXPECT_EQ(tree.num_leaves(), 1);
  EXPECT_EQ(tree.num_levels(), 4);
  // Bounds bubble unchanged through single-child interiors.
  for (int n = 0; n + 1 < tree.num_nodes(); n++) {
    EXPECT_DOUBLE_EQ(tree.floor_w(n).value(), tree.floor_w(n + 1).value());
    EXPECT_DOUBLE_EQ(tree.ceiling_w(n).value(), tree.ceiling_w(n + 1).value());
  }
  for (int period = 0; period < 4; period++) {
    tree.Step();
    ExpectCapInvariant(tree, cfg.budget_w, "chain");
    for (int n = 0; n + 1 < tree.num_nodes(); n++) {
      EXPECT_DOUBLE_EQ(tree.grant_w(n).value(), tree.grant_w(n + 1).value())
          << "grant changed between " << tree.node_path(n) << " and its only child";
    }
    EXPECT_DOUBLE_EQ(tree.measured_w(0).value(), tree.measured_w(3).value());
  }
}

// Every socket its own rack: interior fan-out of one at the rack level,
// with the row doing the real 8-way split.
TEST(BudgetTree, EverySocketItsOwnRack) {
  for (const RackArbiterKind kind : {RackArbiterKind::kShares, RackArbiterKind::kDemand}) {
    BudgetTreeConfig cfg =
        MakeUniformCluster(/*rows=*/1, /*racks_per_row=*/8, /*sockets_per_rack=*/1,
                           MakeSocket(/*rotate=*/0, /*seed=*/42), Watts{320.0});
    cfg.arbiter = kind;
    BudgetTree tree(cfg);
    EXPECT_EQ(tree.num_nodes(), 18);  // dc + row0 + 8 racks + 8 sockets.
    EXPECT_EQ(tree.num_leaves(), 8);
    EXPECT_EQ(tree.num_levels(), 4);
    for (int period = 0; period < 5; period++) {
      tree.Step();
      ExpectCapInvariant(tree, cfg.budget_w,
                         kind == RackArbiterKind::kShares ? "1-socket racks shares"
                                                          : "1-socket racks demand");
      // Each single-socket rack passes its grant straight through.
      for (int n = 0; n < tree.num_nodes(); n++) {
        if (tree.is_leaf(n)) {
          EXPECT_DOUBLE_EQ(tree.grant_w(tree.parent(n)).value(), tree.grant_w(n).value())
              << tree.node_path(n);
        }
      }
    }
  }
}

TEST(BudgetTree, DerivedBoundsBubbleUp) {
  BudgetTreeConfig cfg = MakeCluster(Watts{400.0});
  BudgetTree tree(cfg);
  // Every interior node's derived bounds are its children's sums.
  for (int n = 0; n < tree.num_nodes(); n++) {
    if (tree.is_leaf(n)) continue;
    Watts floor_sum{0.0};
    Watts ceiling_sum{0.0};
    for (int c : tree.children(n)) {
      floor_sum += tree.floor_w(c);
      ceiling_sum += tree.ceiling_w(c);
    }
    EXPECT_DOUBLE_EQ(tree.floor_w(n).value(), floor_sum.value()) << tree.node_path(n);
    EXPECT_DOUBLE_EQ(tree.ceiling_w(n).value(), ceiling_sum.value()) << tree.node_path(n);
  }
  // A configured interior floor only raises the derived one.
  BudgetTreeConfig raised = MakeCluster(Watts{400.0});
  const Watts derived_row_floor = tree.floor_w(tree.FindNode("dc/row0"));
  raised.root.children[0].min_budget_w = derived_row_floor + Watts{10.0};
  BudgetTree raised_tree(raised);
  EXPECT_DOUBLE_EQ(raised_tree.floor_w(raised_tree.FindNode("dc/row0")).value(),
                   (derived_row_floor + Watts{10.0}).value());
}

TEST(BudgetTreeDeathTest, InvertedInteriorBoundsAbort) {
  BudgetTreeConfig cfg = MakeCluster(Watts{400.0});
  // Rack ceiling below the sum of its sockets' floors: infeasible.
  cfg.root.children[0].children[0].max_budget_w = Watts{1.0};
  EXPECT_DEATH({ BudgetTree tree(cfg); }, "bounds inverted");
}

TEST(BudgetTreeDeathTest, LeafWithoutSocketAborts) {
  BudgetTreeConfig cfg;
  cfg.root.name = "dc";
  cfg.root.children.emplace_back();
  cfg.root.children[0].name = "empty-rack";
  EXPECT_DEATH({ BudgetTree tree(cfg); }, "no socket config");
}

TEST(BudgetTreeDeathTest, FaultOnUnknownNodeAborts) {
  BudgetTreeConfig cfg = MakeCluster(Watts{400.0});
  cfg.faults = {{ClusterFaultKind::kBreakerTrip, "dc/row7", 0, 1}};
  EXPECT_DEATH({ BudgetTree tree(cfg); }, "unknown node");
}

TEST(BudgetTreeDeathTest, NonPositiveControlPeriodAborts) {
  // Static leaves register no daemon periodic, so the simulator's own
  // period check never sees the tree's period.
  for (const Seconds period : {Seconds{0.0}, Seconds{-1.0}}) {
    RackSocketConfig socket = MakeSocket(/*rotate=*/0, /*seed=*/42);
    socket.policy = PolicyKind::kStatic;
    BudgetTreeConfig cfg = MakeFlatRack({socket, socket}, Watts{100.0});
    cfg.control_period_s = period;
    EXPECT_DEATH({ BudgetTree tree(cfg); }, "control_period_s") << "period " << period;
  }
}

TEST(BudgetTree, LeafGrantsLandOnDaemons) {
  BudgetTreeConfig cfg = MakeCluster(Watts{320.0});
  BudgetTree tree(cfg);
  tree.Step();
  for (int n = 0; n < tree.num_nodes(); n++) {
    if (!tree.is_leaf(n)) continue;
    EXPECT_DOUBLE_EQ(tree.daemon(n).config().power_limit_w.value(), tree.grant_w(n).value())
        << tree.node_path(n);
  }
}

TEST(BudgetTree, ClusterGrantTraceCoversEveryLevel) {
  obs::TraceRecorder recorder;
  BudgetTreeConfig cfg = MakeCluster(Watts{320.0});
  cfg.obs = &recorder;
  BudgetTree tree(cfg);
  const int kPeriods = 3;
  for (int period = 0; period < kPeriods; period++) {
    tree.Step();
  }
  std::set<int> levels_seen;
  int cluster_grants = 0;
  for (const obs::TraceEvent& e : recorder.Drain()) {
    if (e.type != obs::TraceEventType::kClusterGrant) continue;
    cluster_grants++;
    levels_seen.insert(e.code);
    EXPECT_EQ(e.shard, static_cast<int16_t>(e.index));  // One track per node.
    EXPECT_EQ(e.code, tree.level(e.index));
    EXPECT_GT(e.a, 0.0);  // Grant watts.
  }
  // One event per node per period, spanning every tree level.
  EXPECT_EQ(cluster_grants, tree.num_nodes() * kPeriods);
  EXPECT_EQ(static_cast<int>(levels_seen.size()), tree.num_levels());
}

TEST(BudgetTree, RunBudgetTreeReportsWindow) {
  BudgetTreeConfig cfg = MakeCluster(Watts{320.0});
  cfg.arbiter = RackArbiterKind::kDemand;
  BudgetTreeResult result =
      RunBudgetTree(cfg, /*warmup_s=*/Seconds{2.0}, /*measure_s=*/Seconds{3.0});
  EXPECT_GT(result.avg_root_w, Watts{0.0});
  EXPECT_LE(result.max_grant_overrun_w, Watts{1e-9});
  EXPECT_NEAR(result.measured_s.value(), 3.0, 0.1);
  EXPECT_GE(result.avg_arbiter_wall_s, Seconds{0.0});
}

}  // namespace
}  // namespace papd
