// Cluster-scale fast-path tests: socket-level steady-state hold, replica
// memoization, and the closed-form AdvanceSteady machinery they ride on.
//
// Correctness contracts, mirroring the multi-rate test suite one level up:
//
//   1. Exactness where promised: a memoized tree's full per-period history
//      (grants, measured, reported, at every node) is BITWISE identical to
//      the same tree simulating every leaf — including through a breaker
//      fault that forces replica materialization mid-run — and a package
//      advanced through AdvanceSteady segments reproduces the equivalent
//      multi-rate Tick loop's energy and clock to the bit.  Sockets whose
//      configs differ in any one field never share a replica class.
//
//   2. Resync coverage: each event kind that invalidates a socket hold
//      (grant change, fault-plan arming, work attachment) forces a live
//      daemon step on the very next period.  A twin held replica that sees
//      no event is the counterfactual: it keeps skipping, so a hold that
//      happened to lapse on its own can't produce a false pass.
//
//   3. Statistical equivalence where the hold is approximate: a held socket
//      lands within the multi-rate tolerances (1.5% package energy, 2%
//      per-core instructions) of the same socket stepping its daemon live.
//
//   4. The scale-out contract: a 131072-core tree with every fast path on
//      holds the cap invariant, steps without allocating, and simulates at
//      least 1e9 core-ticks per wall second; its leaves share one socket
//      config, so building it costs a few allocations per leaf.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/perf_util.h"
#include "src/cluster/budget_tree.h"
#include "src/cluster/socket_stack.h"
#include "src/common/thread_pool.h"
#include "src/experiments/scenarios.h"
#include "src/msr/fault_plan.h"
#include "src/platform/platform_spec.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"
#include "tests/alloc_counter.h"
#include "tests/perf_gate.h"

namespace papd {
namespace {

constexpr Seconds kPeriod{1.0};
constexpr Seconds kTick{0.001};

RackSocketConfig MakeSocket(uint64_t seed) {
  RackSocketConfig cfg{.platform = SkylakeXeon4114()};
  cfg.apps = ManyCoreSpreadMix(cfg.platform.num_cores, /*rotate=*/0).apps;
  cfg.policy = PolicyKind::kFrequencyShares;
  cfg.seed = seed;
  cfg.use_baseline_ips = false;
  return cfg;
}

// The hold tests need a socket whose daemon actually quiesces: on the
// many-core EPYC the share targets converge within ~6 periods at a 180 W
// grant and stay put (the 131072-core tree's leaf config).  The small
// Skylake mix keeps hunting across its coarser P-state grid and never
// clears the quiet streak, which is correct hold behavior but useless for
// exercising the held path.
RackSocketConfig MakeHoldSocket() {
  RackSocketConfig cfg{.platform = ManyCoreEpyc128()};
  cfg.apps = ManyCoreSpreadMix(cfg.platform.num_cores, /*rotate=*/0).apps;
  cfg.policy = PolicyKind::kFrequencyShares;
  cfg.seed = 42;
  cfg.use_baseline_ips = false;
  return cfg;
}

constexpr Watts kHoldGrantW{180.0};

// The daemon a tree leaf running MakeHoldSocket() gets under `grant_w`.
DaemonConfig HoldDaemon(Watts grant_w) {
  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kFrequencyShares;
  dcfg.power_limit_w = grant_w;
  dcfg.period_s = kPeriod;
  return dcfg;
}

// A truly homogeneous 2x2x2 fleet: every leaf bit-identical, so replica
// memoization collapses it to one equivalence class.
BudgetTreeConfig MakeHomogeneousCluster(Watts budget_w, const TickOptions& tick) {
  BudgetTreeConfig cfg =
      MakeUniformCluster(/*rows=*/2, /*racks_per_row=*/2, /*sockets_per_rack=*/2,
                         MakeSocket(/*seed=*/42), budget_w,
                         /*decorrelate_seeds=*/false);
  cfg.tick = tick;
  return cfg;
}

// FNV-1a over the full per-period state (same digest budget_tree_test.cc
// uses for serial-vs-pooled): any bitwise divergence between the memoized
// and fully simulated runs changes the hash.
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

void ExpectCapInvariant(const BudgetTree& tree, Watts budget_w, const char* context) {
  if (budget_w >= tree.floor_w(0)) {
    EXPECT_LE(tree.grant_w(0), budget_w + Watts{1e-9}) << context;
  }
  for (int n = 0; n < tree.num_nodes(); n++) {
    if (!tree.is_leaf(n)) {
      EXPECT_LE(tree.grant_sum_w(n), tree.grant_w(n) + Watts{1e-9})
          << context << " node " << tree.node_path(n);
    }
  }
  EXPECT_LE(tree.max_grant_overrun_w(), Watts{1e-9}) << context;
}

// --- Replica memoization: bitwise golden ------------------------------------

// Runs the homogeneous cluster twice — once with memoization, once
// simulating every leaf — and compares the full history digests.
void ExpectMemoizationBitIdentical(const TickOptions& base_tick, const char* context) {
  const Watts kBudget{320.0};
  TickOptions memo_tick = base_tick;
  memo_tick.memoize_replicas = true;
  BudgetTree memo(MakeHomogeneousCluster(kBudget, memo_tick));
  BudgetTree full(MakeHomogeneousCluster(kBudget, base_tick));

  // The homogeneous fleet collapses to a single class of 8 replicas.
  EXPECT_EQ(memo.num_replica_classes(), 1) << context;
  EXPECT_EQ(memo.num_live_leaves(), 1) << context;
  EXPECT_EQ(full.num_replica_classes(), 0) << context;

  for (int period = 0; period < 8; period++) {
    memo.Step();
    full.Step();
    ExpectCapInvariant(memo, kBudget, context);
  }
  EXPECT_EQ(HistoryChecksum(memo), HistoryChecksum(full))
      << context << ": memoized history diverged from full simulation";
  EXPECT_GT(memo.replica_hit_rate(), 0.8) << context;
  EXPECT_DOUBLE_EQ(full.replica_hit_rate(), 0.0) << context;
}

TEST(ReplicaMemoization, BitIdenticalToFullSimulation) {
  ExpectMemoizationBitIdentical(TickOptions{}, "every-tick");
}

TEST(ReplicaMemoization, BitIdenticalUnderMultiRateSocketHold) {
  TickOptions tick;
  tick.policy = TickPolicy::kMultiRate;
  tick.socket_hold = true;
  ExpectMemoizationBitIdentical(tick, "multi-rate + hold");
}

// A breaker trip on one rack skews grants across the class: the affected
// members' grants diverge from the representative's, forcing
// materialization (grant-log replay) mid-run.  The materialized leaves must
// continue bit-identically to the fully simulated twin.
TEST(ReplicaMemoization, BreakerFaultMaterializesDivergedReplicasExactly) {
  const Watts kBudget{320.0};
  const ClusterFault kFault{ClusterFaultKind::kBreakerTrip, "dc/row0/rack0",
                            /*start_period=*/3, /*periods=*/3};
  TickOptions memo_tick;
  memo_tick.memoize_replicas = true;
  BudgetTreeConfig memo_cfg = MakeHomogeneousCluster(kBudget, memo_tick);
  memo_cfg.faults = {kFault};
  BudgetTree memo(memo_cfg);
  BudgetTreeConfig full_cfg = MakeHomogeneousCluster(kBudget, TickOptions{});
  full_cfg.faults = {kFault};
  BudgetTree full(full_cfg);

  ASSERT_EQ(memo.num_live_leaves(), 1);
  for (int period = 0; period < 10; period++) {
    memo.Step();
    full.Step();
    ExpectCapInvariant(memo, kBudget, "faulted memo");
  }
  // The trip revoked the faulted rack's headroom, splitting the class.
  EXPECT_GT(memo.num_live_leaves(), 1) << "fault never forced materialization";
  EXPECT_LE(memo.num_live_leaves(), memo.num_leaves());
  EXPECT_GT(memo.replica_hit_rate(), 0.0);
  EXPECT_EQ(HistoryChecksum(memo), HistoryChecksum(full))
      << "materialized replicas diverged from full simulation";
}

// A leaf-internals accessor on a memoized replica materializes it on
// demand, so external mutation never touches a fanned-out ghost.
TEST(ReplicaMemoization, AccessorMaterializesOnDemand) {
  TickOptions tick;
  tick.memoize_replicas = true;
  BudgetTree tree(MakeHomogeneousCluster(Watts{320.0}, tick));
  tree.Step();
  ASSERT_EQ(tree.num_live_leaves(), 1);
  const int leaf = tree.FindNode("dc/row1/rack1/socket1");
  ASSERT_GE(leaf, 0);
  const PowerDaemon& daemon = tree.daemon(leaf);
  EXPECT_DOUBLE_EQ(daemon.config().power_limit_w.value(), tree.grant_w(leaf).value());
  EXPECT_EQ(tree.num_live_leaves(), 2);
  tree.Step();  // The materialized leaf keeps stepping independently.
  EXPECT_EQ(tree.num_live_leaves(), 2);
}

// --- Replica memoization: class membership ------------------------------------

// The socket of a share-split Skylake rack.
RackSocketConfig SplitSocket() {
  RackSocketConfig cfg{.platform = SkylakeXeon4114()};
  cfg.apps = ShareSplitMix(cfg.platform.num_cores, 70.0, 30.0).apps;
  cfg.use_baseline_ips = false;
  return cfg;
}

// A closed-loop websearch serving socket.
RackSocketConfig ServingSocket() {
  return RackSocketConfig{.platform = SkylakeXeon4114(), .websearch = true};
}

// An open-loop serving socket whose arrivals swing over a 6 s period.
RackSocketConfig DiurnalServingSocket() {
  RackSocketConfig cfg = ServingSocket();
  WebSearch::OpenLoop& ol = cfg.websearch_params.open_loop;
  ol.enabled = true;
  ol.users = 150.0 * 86400.0 / ol.requests_per_user_per_day;  // 150 requests/s mean.
  ol.shape = ArrivalShape::kDiurnal;
  ol.diurnal_period_s = Seconds{6.0};
  return cfg;
}

struct ConfigMutation {
  const char* name;
  RackSocketConfig (*base)();
  void (*mutate)(RackSocketConfig*);
};

// One field changed per case, nested structs included.
const ConfigMutation kConfigMutations[] = {
    {"voltage middle point", SplitSocket,
     [](RackSocketConfig* c) {
       c->platform.voltage = VoltageCurve(
           {{Mhz{800}, Volts{0.65}}, {Mhz{2200}, Volts{1.10}}, {Mhz{3000}, Volts{1.15}}});
     }},
    {"turbo step", SplitSocket,
     [](RackSocketConfig* c) { c->platform.turbo_ladder[1].mhz = Mhz{2800}; }},
    {"thermal tau", SplitSocket,
     [](RackSocketConfig* c) { c->platform.thermal.tau_s = Seconds{2.0}; }},
    {"ceff", SplitSocket,
     [](RackSocketConfig* c) { c->platform.power.ceff_w_per_v2ghz *= 1.5; }},
    {"one app's shares", SplitSocket, [](RackSocketConfig* c) { c->apps[3].shares = 90.0; }},
    {"seed", SplitSocket, [](RackSocketConfig* c) { c->seed = 43; }},
    {"websearch users", ServingSocket,
     [](RackSocketConfig* c) { c->websearch_params.users = 250; }},
    {"open_loop.shape_phase_s", DiurnalServingSocket,
     [](RackSocketConfig* c) { c->websearch_params.open_loop.shape_phase_s = Seconds{1.5}; }},
};

uint64_t WattBits(Watts w) { return std::bit_cast<uint64_t>(w.value()); }

// A memoized two-socket rack {a, b} forms `want_classes` replica classes,
// and every period each socket's measured power equals, bit for bit, the
// same rack simulating both sockets.
void ExpectMemoMatchesFullRack(const RackSocketConfig& a, const RackSocketConfig& b,
                               int want_classes) {
  const Watts kBudget{170.0};
  BudgetTreeConfig memo_cfg = MakeFlatRack({a, b}, kBudget);
  memo_cfg.tick.memoize_replicas = true;
  BudgetTree memo(memo_cfg);
  BudgetTree full(MakeFlatRack({a, b}, kBudget));
  EXPECT_EQ(memo.num_replica_classes(), want_classes);
  for (int period = 1; period <= 5; period++) {
    memo.Step();
    full.Step();
    for (int leaf = 1; leaf <= 2; leaf++) {
      EXPECT_EQ(WattBits(memo.measured_w(leaf)), WattBits(full.measured_w(leaf)))
          << "socket " << leaf - 1 << " period " << period << ": memoized "
          << memo.measured_w(leaf) << " W, simulated " << full.measured_w(leaf) << " W";
    }
  }
}

// Replica classes are config equality: sockets differing in any one field
// never share a class, and identical sockets always do.
TEST(ReplicaMemoization, ClassesSplitOnAnyConfigDifference) {
  for (RackSocketConfig (*base)() : {SplitSocket, ServingSocket, DiurnalServingSocket}) {
    SCOPED_TRACE("unmutated pair");
    ExpectMemoMatchesFullRack(base(), base(), /*want_classes=*/1);
  }
  for (const ConfigMutation& m : kConfigMutations) {
    SCOPED_TRACE(m.name);
    const RackSocketConfig a = m.base();
    RackSocketConfig b = a;
    m.mutate(&b);
    ASSERT_FALSE(a == b);
    ExpectMemoMatchesFullRack(a, b, /*want_classes=*/2);
  }
}

// --- AdvanceSteady: closed-form golden --------------------------------------

// An idle multi-rate package advanced through AdvanceSteady segments must
// reproduce the plain Tick loop's package energy and clock to the bit (the
// segment accumulates both per tick by contract).
TEST(AdvanceSteady, IdlePackageMatchesTickLoopBitwise) {
  Package steady(SkylakeXeon4114());
  Package ticked(SkylakeXeon4114());
  steady.SetTickPolicy(TickPolicy::kMultiRate);
  ticked.SetTickPolicy(TickPolicy::kMultiRate);

  const int kWarmup = 100;
  const int kTicks = 2000;
  for (int t = 0; t < kWarmup; t++) {
    steady.Tick(kTick);
    ticked.Tick(kTick);
  }
  for (int t = 0; t < kTicks;) {
    const int max_ticks = std::min(Package::kDefaultMaxHoldTicks, kTicks - t);
    int advanced = steady.AdvanceSteady(kTick, max_ticks);
    if (advanced == 0) {
      steady.Tick(kTick);
      advanced = 1;
    }
    t += advanced;
  }
  for (int t = 0; t < kTicks; t++) {
    ticked.Tick(kTick);
  }

  // The closed form must actually have engaged — an idle package is the
  // easiest possible hold.
  EXPECT_GT(steady.tick_stats().hold_segments, 0u);
  EXPECT_GT(steady.tick_stats().batched_ticks, 0u);

  uint64_t steady_bits = 0;
  uint64_t ticked_bits = 0;
  double v = steady.package_energy_j().value();
  std::memcpy(&steady_bits, &v, sizeof(v));
  v = ticked.package_energy_j().value();
  std::memcpy(&ticked_bits, &v, sizeof(v));
  EXPECT_EQ(steady_bits, ticked_bits) << "package energy bits diverged";
  EXPECT_DOUBLE_EQ(steady.now().value(), ticked.now().value());
}

// --- Socket hold: resync coverage -------------------------------------------

struct HeldTwin {
  explicit HeldTwin(Watts budget_w) {
    TickOptions tick;
    tick.policy = TickPolicy::kMultiRate;
    tick.socket_hold = true;
    stack = std::make_unique<SocketStack>(MakeHoldSocket(), HoldDaemon(budget_w),
                                          FaultPlan{}, kTick, tick);
  }
  std::unique_ptr<SocketStack> stack;
};

class SocketHoldResyncTest : public ::testing::Test {
 protected:
  // Warms both twins until the daemon hold is engaged and actively
  // skipping (the daemon converges its P-state targets, then the quiet
  // streak must clear SocketStack::kQuietPeriodsToHold).
  void WarmUntilHeld() {
    for (int p = 0; p < 20; p++) {
      event_.stack->AdvancePeriod(kPeriod);
      control_.stack->AdvancePeriod(kPeriod);
    }
    ASSERT_TRUE(event_.stack->daemon_held) << "hold never engaged in warmup";
    ASSERT_TRUE(control_.stack->daemon_held);
    ASSERT_GT(event_.stack->daemon_steps_skipped, 0u);
  }

  // Applies `fire` to the event twin only, advances both one period, and
  // asserts the event twin took a live daemon step while the control twin
  // kept skipping (so a hold lapsing on its own can't fake a pass).
  template <typename Fn>
  void ExpectResyncOn(Fn fire, const char* context) {
    WarmUntilHeld();
    const uint64_t event_skipped = event_.stack->daemon_steps_skipped;
    const uint64_t event_resyncs = event_.stack->hold_resyncs;
    const uint64_t control_skipped = control_.stack->daemon_steps_skipped;
    fire(*event_.stack);
    event_.stack->AdvancePeriod(kPeriod);
    control_.stack->AdvancePeriod(kPeriod);
    EXPECT_EQ(event_.stack->daemon_steps_skipped, event_skipped)
        << context << ": event twin skipped through the event";
    EXPECT_EQ(event_.stack->hold_resyncs, event_resyncs + 1)
        << context << ": event twin never resynced";
    EXPECT_EQ(control_.stack->daemon_steps_skipped, control_skipped + 1)
        << context << ": control twin stopped skipping on its own";
  }

  HeldTwin event_{kHoldGrantW};
  HeldTwin control_{kHoldGrantW};
};

TEST_F(SocketHoldResyncTest, GrantChangeResyncs) {
  ExpectResyncOn([](SocketStack& s) { s.daemon->SetPowerLimit(Watts{170.0}); },
                 "grant change");
}

TEST_F(SocketHoldResyncTest, FaultArmingResyncs) {
  ExpectResyncOn(
      [](SocketStack& s) {
        FaultPlan plan;
        plan.write_fail_p = 1.0;
        s.msr.EnableFaults(plan);
      },
      "fault arming");
}

TEST_F(SocketHoldResyncTest, WorkAttachResyncs) {
  auto spare = std::make_unique<Process>(GetProfile("leela"), /*seed=*/99);
  ExpectResyncOn([&spare](SocketStack& s) { s.pkg.AttachWork(0, spare.get()); },
                 "work attach");
}

// --- Socket hold: statistical equivalence -----------------------------------

struct HoldRunResult {
  Joules energy{0.0};
  std::vector<double> instructions;
  uint64_t skipped = 0;
};

HoldRunResult RunLoadedSocket(bool socket_hold) {
  TickOptions tick;
  tick.policy = TickPolicy::kMultiRate;
  tick.socket_hold = socket_hold;
  SocketStack stack(MakeHoldSocket(), HoldDaemon(kHoldGrantW), FaultPlan{}, kTick, tick);
  for (int p = 0; p < 30; p++) {
    stack.AdvancePeriod(kPeriod);
  }
  stack.pkg.FlushSteadyWork();
  HoldRunResult r;
  r.energy = stack.pkg.package_energy_j();
  for (int i = 0; i < stack.pkg.num_cores(); i++) {
    r.instructions.push_back(stack.pkg.core(i).instructions_retired());
  }
  r.skipped = stack.daemon_steps_skipped;
  return r;
}

TEST(SocketHoldEquivalence, LoadedSocketWithinMultiRateTolerances) {
  const HoldRunResult ref = RunLoadedSocket(/*socket_hold=*/false);
  const HoldRunResult held = RunLoadedSocket(/*socket_hold=*/true);

  // The point of the hold: daemon steps must actually be skipped.
  EXPECT_EQ(ref.skipped, 0u);
  EXPECT_GT(held.skipped, 10u) << "hold never engaged on the loaded socket";

  ASSERT_GT(ref.energy, Joules{0.0});
  EXPECT_NEAR(held.energy.value() / ref.energy.value(), 1.0, 0.015)
      << "held package energy drifted beyond tolerance";

  ASSERT_EQ(held.instructions.size(), ref.instructions.size());
  for (size_t i = 0; i < ref.instructions.size(); i++) {
    ASSERT_GT(ref.instructions[i], 0.0);
    EXPECT_NEAR(held.instructions[i] / ref.instructions[i], 1.0, 0.02)
        << "core " << i << " instruction total drifted beyond tolerance";
  }
}

// --- Parallel fan-out ---------------------------------------------------------

// A 2x2x2 tree of held EPYC-128 sockets with memoization off, so all eight
// leaves are live and every step fans them out through the pool's
// ParallelFor.  Once every daemon holds, the measured parallel steps must
// touch no heap: not in the fan-out, not in the leaves, not in the arbiter.
TEST(ClusterScale, ParallelTreeStepIsAllocationFree) {
  constexpr int kWarmupSteps = 12;
  constexpr int kMeasuredSteps = 4;
  BudgetTreeConfig cfg = MakeUniformCluster(/*rows=*/2, /*racks_per_row=*/2,
                                            /*sockets_per_rack=*/2, MakeHoldSocket(),
                                            kHoldGrantW * 8.0, /*decorrelate_seeds=*/false);
  cfg.tick.policy = TickPolicy::kMultiRate;
  cfg.tick.socket_hold = true;
  cfg.record_history = false;
  BudgetTree tree(cfg);
  ThreadPool pool(2);

  for (int s = 0; s < kWarmupSteps; s++) {
    tree.Step(&pool);
  }
  ASSERT_EQ(tree.num_live_leaves(), 8);
  for (int n = 0; n < tree.num_nodes(); n++) {
    if (tree.is_leaf(n)) {
      ASSERT_TRUE(tree.stack(n).daemon_held) << tree.node_path(n) << " never held";
    }
  }
  const long allocs_before = AllocationCount();
  for (int s = 0; s < kMeasuredSteps; s++) {
    tree.Step(&pool);
  }
  EXPECT_EQ(AllocationCount() - allocs_before, 0) << "parallel tree steps allocated";
  EXPECT_LE(tree.max_grant_overrun_w(), Watts{1e-6});
}

// --- Construction cost of a homogeneous tree ----------------------------------

// Heap allocations made by MakeUniformCluster plus the BudgetTree constructor
// for the 131072-core tree's shape (MakeHoldSocket leaves, every fast path
// on, one replica class) at rows x racks x sockets leaves.  The config is
// passed as an lvalue, so the constructor's copy is counted too.
long CountHomogeneousBuildAllocations(int rows, int racks_per_row, int sockets_per_rack) {
  const RackSocketConfig proto = MakeHoldSocket();
  const Watts floor = SocketFloorW(proto);
  const Watts budget_w{(floor + (SocketCeilingW(proto) - floor) * 0.6) *
                       static_cast<double>(rows * racks_per_row * sockets_per_rack)};
  const long allocs_before = AllocationCount();
  BudgetTreeConfig cfg = MakeUniformCluster(rows, racks_per_row, sockets_per_rack, proto,
                                            budget_w, /*decorrelate_seeds=*/false);
  cfg.arbiter = RackArbiterKind::kShares;
  cfg.tick.policy = TickPolicy::kMultiRate;
  cfg.tick.socket_hold = true;
  cfg.tick.memoize_replicas = true;
  cfg.record_history = false;
  BudgetTree tree(cfg);
  const long allocs = AllocationCount() - allocs_before;
  EXPECT_EQ(tree.num_replica_classes(), 1);
  return allocs;
}

// Identical leaves share one socket config, so each extra leaf costs only
// its tree bookkeeping (node path, child and member slots), never a config
// copy: a few allocations per leaf, independent of the config's size.
TEST(ClusterScale, HomogeneousTreeBuildCostsConstantPerLeaf) {
  constexpr double kMaxAllocsPerExtraLeaf = 4.0;
  const long small = CountHomogeneousBuildAllocations(4, 4, 4);
  const long large = CountHomogeneousBuildAllocations(4, 16, 16);
  const double per_leaf = static_cast<double>(large - small) / (4 * 16 * 16 - 4 * 4 * 4);
  std::printf("homogeneous tree build: %ld allocations at 64 leaves, %ld at 1024 "
              "(%.2f per extra leaf)\n",
              small, large, per_leaf);
  EXPECT_LE(per_leaf, kMaxAllocsPerExtraLeaf);
}

// Every socket config of a uniform cluster, in leaf order.
std::vector<const RackSocketConfig*> LeafConfigs(const BudgetTreeConfig& cfg) {
  std::vector<const RackSocketConfig*> configs;
  for (const BudgetNodeConfig& row : cfg.root.children) {
    for (const BudgetNodeConfig& rack : row.children) {
      for (const BudgetNodeConfig& socket : rack.children) {
        configs.push_back(socket.socket.get());
      }
    }
  }
  return configs;
}

// A homogeneous cluster's leaves all hold one config object equal to the
// prototype; a decorrelated one gives every leaf its own, seeded
// proto.seed + 7919 * leaf and otherwise the prototype.
TEST(ClusterScale, UniformClusterSharesConfigOnlyWhenHomogeneous) {
  const RackSocketConfig proto = MakeSocket(/*seed=*/42);
  const BudgetTreeConfig homogeneous =
      MakeUniformCluster(2, 2, 3, proto, Watts{600.0}, /*decorrelate_seeds=*/false);
  const std::vector<const RackSocketConfig*> shared = LeafConfigs(homogeneous);
  ASSERT_EQ(shared.size(), 12u);
  ASSERT_NE(shared[0], nullptr);
  EXPECT_TRUE(*shared[0] == proto);
  for (const RackSocketConfig* config : shared) {
    EXPECT_EQ(config, shared[0]);
  }

  const BudgetTreeConfig decorrelated =
      MakeUniformCluster(2, 2, 3, proto, Watts{600.0}, /*decorrelate_seeds=*/true);
  const std::vector<const RackSocketConfig*> own = LeafConfigs(decorrelated);
  ASSERT_EQ(own.size(), 12u);
  for (size_t leaf = 0; leaf < own.size(); leaf++) {
    ASSERT_NE(own[leaf], nullptr);
    EXPECT_EQ(own[leaf]->seed, proto.seed + 7919ULL * leaf) << "leaf " << leaf;
    RackSocketConfig reseeded = *own[leaf];
    reseeded.seed = proto.seed;
    EXPECT_TRUE(reseeded == proto) << "leaf " << leaf;
    for (size_t other = 0; other < leaf; other++) {
      EXPECT_NE(own[leaf], own[other]) << "leaves " << other << " and " << leaf;
    }
  }
}

// --- The 131072-core tree ----------------------------------------------------

// 4 x 16 x 16 EPYC-128 sockets (1024 x 128 = 131072 cores) with every fast
// path engaged: multi-rate ticking, socket hold, replica memoization, no
// per-period history.  Identical seeds under the shares arbiter make grants
// measurement-independent, so the tree collapses into one replica class.
// After 12 warmup periods (the daemon converges in ~6, then the hold needs
// its quiet streak), 4 measured periods must hold the cap invariant, touch
// no heap, and step at least 1e9 simulated core-ticks per wall second.
TEST(ClusterScale, Tree131kHoldsCapWithoutAllocating) {
  constexpr int kRows = 4;
  constexpr int kRacksPerRow = 16;
  constexpr int kSocketsPerRack = 16;
  constexpr int kWarmupSteps = 12;
  constexpr int kMeasuredSteps = 4;
  constexpr double kMinCoreTicksPerS = 1e9;

  RackSocketConfig proto = MakeHoldSocket();
  const int leaves = kRows * kRacksPerRow * kSocketsPerRack;
  const int cores = leaves * proto.platform.num_cores;
  ASSERT_GE(cores, 131072);
  // 60% of the way from the tree's floor to its ceiling: the arbiter
  // revokes, and every socket stays above its floor.
  const Watts floor = SocketFloorW(proto);
  const Watts budget_w{(floor + (SocketCeilingW(proto) - floor) * 0.6) *
                       static_cast<double>(leaves)};
  BudgetTreeConfig cfg = MakeUniformCluster(kRows, kRacksPerRow, kSocketsPerRack, proto,
                                            budget_w, /*decorrelate_seeds=*/false);
  cfg.arbiter = RackArbiterKind::kShares;
  cfg.tick.policy = TickPolicy::kMultiRate;
  cfg.tick.socket_hold = true;
  cfg.tick.memoize_replicas = true;
  cfg.record_history = false;
  BudgetTree tree(cfg);
  EXPECT_GE(tree.num_replica_classes(), 1);

  for (int s = 0; s < kWarmupSteps; s++) {
    tree.Step();
  }
  Watts overrun = tree.max_grant_overrun_w();
  const long allocs_before = AllocationCount();
  const Seconds start = perf::NowS();
  for (int s = 0; s < kMeasuredSteps; s++) {
    tree.Step();
    overrun = std::max(overrun, tree.max_grant_overrun_w());
  }
  const Seconds wall = perf::NowS() - start;
  const long allocs = AllocationCount() - allocs_before;

  EXPECT_EQ(allocs, 0) << "steady-state tree steps allocated";
  EXPECT_LE(overrun, Watts{1e-6}) << "child grants exceeded a parent grant";
  EXPECT_GE(tree.num_live_leaves(), 1);
  EXPECT_GE(tree.replica_hit_rate(), 0.0);
  EXPECT_LE(tree.replica_hit_rate(), 1.0);

  const double core_ticks_per_s =
      cores * kMeasuredSteps * (cfg.control_period_s / cfg.tick_s) / wall.value();
  std::printf("131072-core tree: %.3g simulated core-ticks/s (floor %.0e)\n",
              core_ticks_per_s, kMinCoreTicksPerS);
  if (!kWallClockGates) {
    GTEST_SKIP() << "wall-clock floor needs an optimized, unsanitized build";
  }
  EXPECT_GE(core_ticks_per_s, kMinCoreTicksPerS);
}

}  // namespace
}  // namespace papd
