// Flat-rack and many-core preset tests.
//
// A flat rack is a one-level BudgetTree (MakeFlatRack): root "rack" over one
// leaf per socket, leaf i at flat node i + 1.  The load-bearing invariant:
// the per-socket grants must never sum past the rack budget (whenever the
// budget covers the per-socket floors) — checked at every control period
// of every run, for both arbiter kinds.  Also covers determinism of the
// ThreadPool fan-out and basic sanity of the 64/128-core platform presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/cluster/budget_tree.h"
#include "src/common/thread_pool.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/scenarios.h"
#include "src/platform/platform_spec.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

RackSocketConfig MakeSocket(double shares, int rotate, uint64_t seed) {
  RackSocketConfig cfg{.platform = SkylakeXeon4114()};
  cfg.apps = ManyCoreSpreadMix(cfg.platform.num_cores, rotate).apps;
  cfg.policy = PolicyKind::kFrequencyShares;
  cfg.shares = shares;
  cfg.seed = seed;
  // Frequency shares do not need standalone baselines; skip the extra
  // simulations to keep the test fast.
  cfg.use_baseline_ips = false;
  return cfg;
}

BudgetTreeConfig MakeRack(int sockets, Watts budget_w) {
  std::vector<RackSocketConfig> configs;
  for (int s = 0; s < sockets; s++) {
    configs.push_back(MakeSocket(/*shares=*/1.0 + s, /*rotate=*/s, /*seed=*/42 + 100 * s));
  }
  return MakeFlatRack(std::move(configs), budget_w);
}

// Flat node index of socket `s`.
int Leaf(int s) { return s + 1; }

const RackSocketConfig& SocketOf(const BudgetTreeConfig& cfg, int s) {
  return *cfg.root.children[static_cast<size_t>(s)].socket;
}

Watts FloorSum(const BudgetTreeConfig& cfg) {
  Watts sum{0.0};
  for (const BudgetNodeConfig& leaf : cfg.root.children) {
    const RackSocketConfig& s = *leaf.socket;
    sum += s.min_budget_w > Watts{0.0} ? s.min_budget_w : s.platform.rapl_min_w;
  }
  return sum;
}

TEST(Rack, BudgetsNeverExceedRackBudget) {
  for (const RackArbiterKind kind : {RackArbiterKind::kShares, RackArbiterKind::kDemand}) {
    BudgetTreeConfig cfg = MakeRack(/*sockets=*/4, /*budget_w=*/Watts{160.0});
    cfg.arbiter = kind;
    ASSERT_GE(cfg.budget_w, FloorSum(cfg));
    BudgetTree rack(cfg);
    ASSERT_EQ(rack.num_leaves(), 4);
    for (int period = 0; period < 12; period++) {
      EXPECT_LE(rack.grant_sum_w(0), cfg.budget_w + Watts{1e-9})
          << "arbiter kind " << static_cast<int>(kind) << " period " << period;
      for (int s = 0; s < rack.num_leaves(); s++) {
        EXPECT_GE(rack.grant_w(Leaf(s)), SocketOf(cfg, s).platform.rapl_min_w - Watts{1e-9});
      }
      rack.Step();
    }
    EXPECT_EQ(rack.history().size(), 12u);
  }
}

TEST(Rack, UnconstrainedBudgetSplitsFully) {
  // Between the floor and ceiling sums the proportional split uses the
  // whole budget.
  BudgetTreeConfig cfg = MakeRack(/*sockets=*/3, /*budget_w=*/Watts{150.0});
  BudgetTree rack(cfg);
  rack.Step();
  EXPECT_NEAR(rack.grant_sum_w(0).value(), cfg.budget_w.value(), 1e-6);
  // Shares 1:2:3 => socket 2 gets the largest grant.
  EXPECT_GT(rack.grant_w(Leaf(2)), rack.grant_w(Leaf(0)));
}

TEST(Rack, DemandArbiterMovesSurplusToBusySockets) {
  // Socket 0 idle (no apps), socket 1 fully loaded, equal shares.
  RackSocketConfig idle = MakeSocket(/*shares=*/1.0, /*rotate=*/0, /*seed=*/1);
  idle.apps.clear();
  BudgetTreeConfig cfg =
      MakeFlatRack({idle, MakeSocket(/*shares=*/1.0, /*rotate=*/1, /*seed=*/2)}, Watts{120.0});
  cfg.arbiter = RackArbiterKind::kDemand;
  BudgetTree rack(cfg);
  for (int period = 0; period < 6; period++) {
    rack.Step();
    EXPECT_LE(rack.grant_sum_w(0), cfg.budget_w + Watts{1e-9});
  }
  // The idle socket's claim collapses to just above its draw; the busy
  // socket inherits the surplus.
  EXPECT_GT(rack.grant_w(Leaf(1)), rack.grant_w(Leaf(0)) + Watts{10.0});
}

TEST(Rack, ParallelStepMatchesSerial) {
  const BudgetTreeResult serial =
      RunBudgetTree(MakeRack(/*sockets=*/3, /*budget_w=*/Watts{150.0}),
                    /*warmup_s=*/Seconds{2.0}, /*measure_s=*/Seconds{3.0}, /*pool=*/nullptr);
  ThreadPool pool(2);
  const BudgetTreeResult parallel =
      RunBudgetTree(MakeRack(/*sockets=*/3, /*budget_w=*/Watts{150.0}),
                    /*warmup_s=*/Seconds{2.0}, /*measure_s=*/Seconds{3.0}, &pool);
  EXPECT_DOUBLE_EQ(serial.avg_root_w.value(), parallel.avg_root_w.value());
  EXPECT_DOUBLE_EQ(serial.max_grant_overrun_w.value(), parallel.max_grant_overrun_w.value());
  EXPECT_DOUBLE_EQ(serial.measured_s.value(), parallel.measured_s.value());

  // Per socket, period by period.
  BudgetTree serial_rack(MakeRack(/*sockets=*/3, /*budget_w=*/Watts{150.0}));
  BudgetTree pooled_rack(MakeRack(/*sockets=*/3, /*budget_w=*/Watts{150.0}));
  for (int period = 0; period < 5; period++) {
    serial_rack.Step(nullptr);
    pooled_rack.Step(&pool);
    for (int n = 0; n < serial_rack.num_nodes(); n++) {
      EXPECT_DOUBLE_EQ(serial_rack.measured_w(n).value(), pooled_rack.measured_w(n).value());
      EXPECT_DOUBLE_EQ(serial_rack.grant_w(n).value(), pooled_rack.grant_w(n).value());
    }
  }
}

TEST(Rack, MeasuredPowerTracksBudgets) {
  const BudgetTreeConfig cfg = MakeRack(/*sockets=*/2, /*budget_w=*/Watts{90.0});
  const BudgetTreeResult result =
      RunBudgetTree(cfg, /*warmup_s=*/Seconds{3.0}, /*measure_s=*/Seconds{5.0});
  EXPECT_GT(result.avg_root_w, Watts{0.0});
  EXPECT_LE(result.max_grant_overrun_w, Watts{1e-9});
  // Daemons enforce their grants within control tolerance; allow slack for
  // the settling transient after re-arbitration.
  EXPECT_LT(result.avg_root_w, cfg.budget_w * 1.25);
}

TEST(Rack, MeasuredPowerUsesActualElapsedTime) {
  // With period/tick aligned (0.25 s / 0.001 s = 250 ticks) and misaligned
  // (0.25 s / 0.004 s = 62.5 ticks, so Run() overshoots to 63 ticks), the
  // measurement must be energy over the span the simulator ACTUALLY
  // advanced.  Dividing by the nominal period would bias the misaligned
  // case high and feed the demand arbiter an inflated claim.
  for (const Seconds tick_s : {Seconds{0.001}, Seconds{0.004}}) {
    BudgetTreeConfig cfg = MakeRack(/*sockets=*/2, /*budget_w=*/Watts{90.0});
    cfg.control_period_s = Seconds{0.25};
    cfg.tick_s = tick_s;
    BudgetTree rack(cfg);
    std::vector<Joules> start_j;
    std::vector<Seconds> start_s;
    for (int s = 0; s < rack.num_leaves(); s++) {
      start_j.push_back(rack.package(Leaf(s)).package_energy_j());
      start_s.push_back(rack.package(Leaf(s)).now());
    }
    rack.Step();
    for (int s = 0; s < rack.num_leaves(); s++) {
      const Package& pkg = rack.package(Leaf(s));
      const Seconds elapsed = pkg.now() - start_s[static_cast<size_t>(s)];
      const Joules delta{pkg.package_energy_j() - start_j[static_cast<size_t>(s)]};
      if (tick_s == Seconds{0.004}) {
        // The misaligned pair really does overshoot the nominal period.
        EXPECT_GT(elapsed, Seconds{0.2505});
      } else {
        EXPECT_NEAR(elapsed.value(), 0.25, 1e-9);
      }
      EXPECT_DOUBLE_EQ(rack.measured_w(Leaf(s)).value(), (delta / elapsed).value());
    }
  }
}

TEST(Rack, RunRackChecksFinalArbitrationAgainstBudget) {
  // Regression for window accounting: RunBudgetTree's window must cover the
  // arbitration closing the FINAL measurement period, not just the grants
  // in force when each period opens.  Replay a replica rack to find a
  // period k where the grant sum rises across the arbitration (the demand
  // arbiter's claims track fluctuating draw, so one exists), then measure
  // exactly that period: the window reports period k+1's draw and the worst
  // cap slack of both arbitrations, and the rising re-split stays inside
  // the rack budget.
  const auto make = [] {
    BudgetTreeConfig cfg = MakeRack(/*sockets=*/2, /*budget_w=*/Watts{400.0});
    cfg.arbiter = RackArbiterKind::kDemand;
    return cfg;
  };
  std::vector<Watts> sums;     // sums[i] = grant sum after i Steps.
  std::vector<Watts> overrun;  // overrun[i] = cap slack after i Steps.
  std::vector<Watts> drawn;    // drawn[i] = rack draw over period i.
  BudgetTree replica(make());
  sums.push_back(replica.grant_sum_w(0));
  overrun.push_back(replica.max_grant_overrun_w());
  for (int p = 0; p < 12; p++) {
    replica.Step();
    sums.push_back(replica.grant_sum_w(0));
    overrun.push_back(replica.max_grant_overrun_w());
    drawn.push_back(replica.measured_w(0));
  }
  int rising = -1;
  for (size_t k = 0; k + 1 < sums.size(); k++) {
    if (sums[k + 1] > sums[k] + Watts{1e-9}) {
      rising = static_cast<int>(k);
      break;
    }
  }
  ASSERT_GE(rising, 0) << "deterministic demand run never raised the grant sum";
  const size_t k = static_cast<size_t>(rising);
  EXPECT_LE(sums[k + 1], make().budget_w + Watts{1e-9});

  const BudgetTreeResult result = RunBudgetTree(make(), /*warmup_s=*/Seconds{1.0 * rising},
                                                /*measure_s=*/Seconds{1.0});
  EXPECT_DOUBLE_EQ(result.avg_root_w.value(), drawn[k].value());
  EXPECT_DOUBLE_EQ(result.max_grant_overrun_w.value(),
                   std::max(overrun[k], overrun[k + 1]).value());
}

TEST(RackDeathTest, InvertedSocketBudgetBoundsAbort) {
  // min_budget_w above max_budget_w would make the arbiter's
  // std::clamp(demand, floor, ceiling) undefined behavior; construction
  // must refuse the config instead.
  BudgetTreeConfig cfg = MakeRack(/*sockets=*/2, /*budget_w=*/Watts{160.0});
  cfg.root.children[0].socket->min_budget_w = Watts{80.0};
  cfg.root.children[0].socket->max_budget_w = Watts{40.0};
  EXPECT_DEATH({ BudgetTree rack(cfg); }, "floor above ceiling");
}

// --- Many-core presets -------------------------------------------------------

TEST(ManyCorePresets, LaddersAreMonotoneAndCoverAllCores) {
  for (const PlatformSpec& spec : {ManyCoreXeon64(), ManyCoreEpyc128()}) {
    ASSERT_FALSE(spec.turbo_ladder.empty()) << spec.name;
    EXPECT_EQ(spec.turbo_ladder.back().max_active_cores, spec.num_cores) << spec.name;
    for (size_t i = 1; i < spec.turbo_ladder.size(); i++) {
      EXPECT_GT(spec.turbo_ladder[i].max_active_cores,
                spec.turbo_ladder[i - 1].max_active_cores);
      EXPECT_LE(spec.turbo_ladder[i].mhz, spec.turbo_ladder[i - 1].mhz);
    }
    EXPECT_EQ(spec.TurboLimitMhz(1), spec.turbo_max_mhz) << spec.name;
    EXPECT_GE(spec.TurboLimitMhz(spec.num_cores), spec.base_max_mhz) << spec.name;
    EXPECT_LE(spec.avx_max_mhz_heavy, spec.avx_max_mhz_light) << spec.name;
  }
}

TEST(ManyCorePresets, FullyLoaded128CoreTickIsSane) {
  const PlatformSpec spec = ManyCoreEpyc128();
  Package pkg(spec);
  std::vector<std::unique_ptr<Process>> procs;
  const WorkloadMix mix = ManyCoreSpreadMix(spec.num_cores, /*rotate=*/0);
  for (int i = 0; i < spec.num_cores; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile(mix.apps[static_cast<size_t>(i)].profile),
                                              /*seed=*/42 + static_cast<uint64_t>(i)));
    pkg.AttachWork(i, procs.back().get());
  }
  Simulator sim(&pkg);
  sim.Run(Seconds{1.0});
  // All-core turbo limit respected, real power drawn, counters advanced.
  for (int i = 0; i < spec.num_cores; i++) {
    EXPECT_LE(pkg.core(i).effective_mhz(), spec.TurboLimitMhz(spec.num_cores));
    EXPECT_GT(pkg.core(i).instructions_retired(), 0.0);
  }
  EXPECT_GT(pkg.last_package_power_w(), spec.power.uncore_base_w);
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 1);
}

TEST(ManyCorePresets, ManyCorePriorityMixesFillEveryCore) {
  for (const int cores : {64, 128}) {
    for (const WorkloadMix& mix : ManyCorePriorityMixes(cores)) {
      EXPECT_EQ(static_cast<int>(mix.apps.size()), cores) << mix.label;
    }
  }
}

TEST(ManyCorePresets, DistinctRequestedFrequenciesCountsGridSlots) {
  const PlatformSpec spec = ManyCoreXeon64();
  Package pkg(spec);
  // Spread requests over 16 distinct grid frequencies, cycling.
  for (int i = 0; i < spec.num_cores; i++) {
    pkg.SetRequestedMhz(i, spec.min_mhz + spec.step_mhz * (i % 16));
  }
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 16);
  // Offline cores drop out of the census.
  for (int i = 0; i < spec.num_cores; i++) {
    if (i % 16 != 0) {
      pkg.SetOnline(i, false);
    }
  }
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 1);
  // Repeated calls are stable (the scratch bitmap is cleared each time).
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 1);
}

}  // namespace
}  // namespace papd
