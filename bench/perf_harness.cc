// Perf-tracking harness: times representative scenarios serially and in
// parallel and emits machine-readable BENCH_scenarios.json for CI trending.
//
// Five sections:
//   - micro:           hot-loop timings (Package::Tick, full daemon step)
//                      using the perf_util calibration discipline;
//   - scaling:         Package::Tick at 8/64/128 cores (SoA tick engine
//                      cost growth), one control period of a 4-socket flat
//                      rack (a one-level BudgetTree), and
//                      the steady-state allocations-per-tick count, which
//                      must be zero — the harness exits non-zero otherwise;
//   - scenarios:       wall time of one representative scenario per policy,
//                      with simulated-seconds-per-wall-second as the figure
//                      of merit;
//   - batch:           the same scenario list run serially (loop over
//                      RunScenario) and through RunScenarios on a thread
//                      pool; reports the speedup;
//   - cluster:         one BudgetTree control period at datacenter scale
//                      (rows x racks x many-core sockets, >= 2048 simulated
//                      cores), reporting sim-core-ticks/s, the hierarchical
//                      arbiter's per-period overhead, and the worst
//                      cap-invariant slack — the harness exits non-zero if
//                      any grant sum ever exceeds its parent grant;
//   - cluster_100k:    one >= 128k-core homogeneous BudgetTree stepped with
//                      multi-rate ticking, socket-level steady-state hold
//                      and replica memoization — reports sim-core-ticks/s
//                      (must be >= 1e9), the replica-class hit rate, peak
//                      RSS, and the steady-state allocations per step,
//                      which must be zero — the harness exits non-zero
//                      otherwise;
//   - fleet:           the SLO-aware serving fleet: >= 256 open-loop
//                      websearch sockets under one BudgetTree at >= 1M
//                      simulated users, the policy axis (static shares vs
//                      priority vs SLO feedback) expanded through the
//                      declarative SweepSpec API — reports per-policy SLO
//                      violations, p90s, and sockets-stepped/s; the harness
//                      exits non-zero unless SLO feedback beats static
//                      shares on violations at the same cap;
//   - fault_tolerance: representative fault schedules (telemetry faults,
//                      dropped writes) run naive vs hardened — ground-truth
//                      power overshoot and degradation counters, so CI
//                      archives the fault-robustness numbers alongside the
//                      timings;
//   - obs:             tracing overhead (daemon step with tracing off vs on,
//                      overhead percent), the disabled-tracer zero-event
//                      guarantee, and a sample of the metrics registry from
//                      a traced scenario run.
//
// Timing numbers are environment-dependent; CI validates the JSON shape and
// archives the numbers rather than asserting on them (see
// tools/check_bench_json.py).
//
// Flags:
//   --quick       short measurement windows (CI smoke)
//   --jobs=N      worker count for the parallel section (default:
//                 ThreadPool::DefaultJobs(), i.e. PAPD_JOBS or hardware)
//   --out=PATH    JSON output path (default: BENCH_scenarios.json)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench/perf_util.h"
#include "src/cluster/budget_tree.h"
#include "src/cluster/fleet.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/common/thread_pool.h"
#include "src/cpusim/package.h"
#include "src/experiments/batch.h"
#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"
#include "src/experiments/sweep.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"
#include "tests/alloc_counter.h"

namespace papd {
namespace {

struct Options {
  bool quick = false;
  int jobs = 0;  // 0 = ThreadPool::DefaultJobs().
  std::string out = "BENCH_scenarios.json";
};

struct MicroResult {
  std::string name;
  double ns_per_iter = 0.0;
};

struct ScenarioTiming {
  std::string policy;
  Seconds wall_s{0.0};
  Seconds sim_s{0.0};
};

// The representative scenario: the paper's middle priority mix, which
// exercises every layer (all cores busy, RAPL, thermal, policy daemon).
// Power shares needs per-core power telemetry, so it runs on Ryzen.
ScenarioConfig RepresentativeConfig(PolicyKind policy, bool quick) {
  const bool ryzen = policy == PolicyKind::kPowerShares;
  const auto mixes = ryzen ? RyzenPriorityMixes() : SkylakePriorityMixes();
  ScenarioConfig c{.platform = ryzen ? Ryzen1700X() : SkylakeXeon4114()};
  c.apps = mixes[mixes.size() / 2].apps;
  c.policy = policy;
  c.limit_w = Watts{50.0};
  c.warmup_s = quick ? Seconds{2.0} : Seconds{10.0};
  c.measure_s = quick ? Seconds{4.0} : Seconds{30.0};
  c.seed = 42;
  return c;
}

std::vector<MicroResult> RunMicro(bool quick) {
  const Seconds min_time{quick ? 0.05 : 0.3};
  std::vector<MicroResult> out;

  {
    Package pkg(SkylakeXeon4114());
    std::vector<std::unique_ptr<Process>> procs;
    for (int i = 0; i < 10; i++) {
      procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
      pkg.AttachWork(i, procs.back().get());
    }
    const perf::Result r = perf::MeasureLoop([&pkg] { pkg.Tick(Seconds{0.001}); }, min_time);
    out.push_back({"package_tick_10core_gcc", r.ns_per_iter});
  }

  {
    Package pkg(SkylakeXeon4114());
    MsrFile msr(&pkg);
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<ManagedApp> apps;
    for (int i = 0; i < 10; i++) {
      procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
      pkg.AttachWork(i, procs.back().get());
      apps.push_back(ManagedApp{.name = "gcc",
                                .cpu = i,
                                .shares = 10.0 + 9.0 * i,
                                .high_priority = i % 2 == 0,
                                .baseline_ips = Ips{2e9}});
    }
    PowerDaemon daemon(&msr, apps,
                       {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{45.0}});
    daemon.Start();
    const perf::Result r = perf::MeasureLoop(
        [&pkg, &daemon] {
          pkg.Tick(Seconds{0.001});
          daemon.Step();
        },
        min_time);
    out.push_back({"daemon_full_step", r.ns_per_iter});
  }

  return out;
}

// --- Scaling section ---------------------------------------------------------

struct ScalingRow {
  int cores = 0;
  double ns_per_iter = 0.0;
  double ns_per_core = 0.0;
};

struct RackTiming {
  int sockets = 0;
  // Wall seconds for one control period (1 simulated second across all
  // sockets) and the resulting simulated core-ticks per wall second.
  double wall_s_per_step = 0.0;
  double sim_core_ticks_per_s = 0.0;
};

// One 128-core tick-engine configuration: forced-scalar reference,
// dispatched SIMD kernels, or SIMD + multi-rate.  Speedups are same-run
// ratios against the forced-scalar row, so they are host- and
// build-consistent by construction.
struct TickEngineRow {
  std::string name;
  std::string kernel;  // Kernel table actually driving the run.
  double ns_per_iter = 0.0;
  double ns_per_core = 0.0;
  double speedup_vs_scalar = 0.0;
};

struct ScalingResult {
  std::vector<ScalingRow> package_tick;
  std::vector<TickEngineRow> tick_engine;
  RackTiming rack_tick;
  RackTiming rack_tick_multirate;
  long steady_allocs_per_tick = 0;
};

ScalingResult RunScaling(bool quick) {
  const Seconds min_time{quick ? 0.05 : 0.3};
  ScalingResult out;

  // BM_PackageTick at 8 / 64 / 128 cores, every core running gcc.
  PlatformSpec eight = SkylakeXeon4114();
  eight.num_cores = 8;
  const PlatformSpec specs[] = {eight, ManyCoreXeon64(), ManyCoreEpyc128()};
  for (const PlatformSpec& spec : specs) {
    Package pkg(spec);
    std::vector<std::unique_ptr<Process>> procs;
    for (int i = 0; i < spec.num_cores; i++) {
      procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + static_cast<uint64_t>(i)));
      pkg.AttachWork(i, procs.back().get());
    }
    const perf::Result r = perf::MeasureLoop([&pkg] { pkg.Tick(Seconds{0.001}); }, min_time);
    out.package_tick.push_back(
        {spec.num_cores, r.ns_per_iter, r.ns_per_iter / spec.num_cores});

    // The steady-state tick must not allocate (checked on the 8-core
    // package; the loop above doubles as warmup for caches and memos).
    if (spec.num_cores == 8) {
      const long before = AllocationCount();
      for (int t = 0; t < 1000; t++) {
        pkg.Tick(Seconds{0.001});
      }
      out.steady_allocs_per_tick = (AllocationCount() - before + 999) / 1000;
    }
  }

  // Tick-engine comparison at 128 cores: the forced-scalar every-tick
  // reference, the dispatched SIMD kernels, and SIMD + multi-rate ticking.
  {
    const PlatformSpec spec = ManyCoreEpyc128();
    const auto measure = [&](const char* kernel, TickPolicy policy,
                             TickEngineRow* row) {
      if (!simd::ForceKernelsForTest(kernel)) {
        return false;  // Requested kernel table unavailable on this host.
      }
      Package pkg(spec);
      pkg.SetTickPolicy(policy);
      std::vector<std::unique_ptr<Process>> procs;
      for (int i = 0; i < spec.num_cores; i++) {
        procs.push_back(
            std::make_unique<Process>(GetProfile("gcc"), 1 + static_cast<uint64_t>(i)));
        pkg.AttachWork(i, procs.back().get());
      }
      const perf::Result r =
          perf::MeasureLoop([&pkg] { pkg.Tick(Seconds{0.001}); }, min_time);
      row->kernel = pkg.tick_kernel_name();
      row->ns_per_iter = r.ns_per_iter;
      row->ns_per_core = r.ns_per_iter / spec.num_cores;
      simd::ForceKernelsForTest(nullptr);
      return true;
    };
    TickEngineRow scalar{.name = "package_tick_128core_scalar"};
    TickEngineRow simd_row{.name = "package_tick_128core_simd"};
    TickEngineRow multirate{.name = "package_tick_128core_multirate"};
    measure("scalar", TickPolicy::kEveryTick, &scalar);
    measure("auto", TickPolicy::kEveryTick, &simd_row);
    measure("auto", TickPolicy::kMultiRate, &multirate);
    scalar.speedup_vs_scalar = 1.0;
    simd_row.speedup_vs_scalar =
        simd_row.ns_per_iter > 0.0 ? scalar.ns_per_iter / simd_row.ns_per_iter : 0.0;
    multirate.speedup_vs_scalar =
        multirate.ns_per_iter > 0.0 ? scalar.ns_per_iter / multirate.ns_per_iter : 0.0;
    out.tick_engine = {scalar, simd_row, multirate};
  }

  // BM_RackTick: one arbiter period of a 4-socket Skylake flat rack,
  // every-tick and multi-rate.
  const auto measure_rack = [&](const TickOptions& tick, RackTiming* timing) {
    std::vector<RackSocketConfig> sockets;
    for (int s = 0; s < 4; s++) {
      RackSocketConfig socket{.platform = SkylakeXeon4114()};
      socket.apps = ManyCoreSpreadMix(socket.platform.num_cores, s).apps;
      socket.policy = PolicyKind::kFrequencyShares;
      socket.shares = 1.0;
      socket.seed = 42 + 100 * static_cast<uint64_t>(s);
      socket.use_baseline_ips = false;
      sockets.push_back(socket);
    }
    BudgetTreeConfig cfg = MakeFlatRack(std::move(sockets), Watts{200.0});
    cfg.tick = tick;
    BudgetTree rack(cfg);
    rack.Step();  // Warmup period.
    const int steps = quick ? 3 : 10;
    const Seconds start = perf::NowS();
    for (int s = 0; s < steps; s++) {
      rack.Step();
    }
    const double wall = (perf::NowS() - start).value();
    timing->sockets = 4;
    timing->wall_s_per_step = wall / steps;
    const double core_ticks_per_step =
        4.0 * 10.0 * (cfg.control_period_s / cfg.tick_s);
    timing->sim_core_ticks_per_s =
        wall > 0.0 ? steps * core_ticks_per_step / wall : 0.0;
  };
  measure_rack(TickOptions{}, &out.rack_tick);
  measure_rack(TickOptions{.policy = TickPolicy::kMultiRate},
               &out.rack_tick_multirate);

  return out;
}

// --- Cluster section ---------------------------------------------------------

// One BudgetTree control period at datacenter scale.
struct ClusterTiming {
  int rows = 0;
  int racks_per_row = 0;
  int sockets_per_rack = 0;
  int cores = 0;   // Total simulated cores across all leaves.
  int levels = 0;  // Tree depth (dc -> row -> rack -> socket = 4).
  int nodes = 0;
  std::string tick_policy;
  double wall_s_per_step = 0.0;
  double sim_core_ticks_per_s = 0.0;
  // Control-plane cost: the aggregate+ladder+arbitrate pass per period.
  double arbiter_us_per_period = 0.0;
  double arbiter_overhead_pct = 0.0;
  // Worst (sum of child grants) - (parent grant) over the run; must be ~0.
  Watts max_grant_overrun_w{0.0};
};

ClusterTiming RunCluster(bool quick, int jobs) {
  ClusterTiming out;
  out.rows = 2;
  out.racks_per_row = quick ? 4 : 8;
  out.sockets_per_rack = 4;

  RackSocketConfig proto{.platform = ManyCoreXeon64()};
  proto.apps = ManyCoreSpreadMix(proto.platform.num_cores, /*rotate=*/0).apps;
  proto.policy = PolicyKind::kFrequencyShares;
  proto.seed = 42;
  proto.use_baseline_ips = false;

  const int leaves = out.rows * out.racks_per_row * out.sockets_per_rack;
  // Budget at 60% of the way between the cluster floor and ceiling: tight
  // enough that the arbiter genuinely revokes, loose enough to stay above
  // the floors.
  const Watts socket_floor = SocketFloorW(proto);
  const Watts socket_ceiling = SocketCeilingW(proto);
  const Watts budget_w{(socket_floor + (socket_ceiling - socket_floor) * 0.6) *
                       static_cast<double>(leaves)};

  BudgetTreeConfig cfg =
      MakeUniformCluster(out.rows, out.racks_per_row, out.sockets_per_rack, proto, budget_w);
  cfg.arbiter = RackArbiterKind::kDemand;
  // Every-tick simulation of thousands of cores is wasteful; the multi-rate
  // engine is how the roadmap reaches cluster scale.
  cfg.tick.policy = TickPolicy::kMultiRate;

  BudgetTree tree(cfg);
  out.cores = leaves * proto.platform.num_cores;
  out.levels = tree.num_levels();
  out.nodes = tree.num_nodes();
  out.tick_policy = "multirate";

  ThreadPool pool(jobs);
  tree.Step(&pool);  // Warmup period (caches, memo tables, daemon spin-up).
  out.max_grant_overrun_w = tree.max_grant_overrun_w();

  const int steps = quick ? 2 : 5;
  Seconds arbiter_wall_s{0.0};
  const Seconds start = perf::NowS();
  for (int s = 0; s < steps; s++) {
    tree.Step(&pool);
    arbiter_wall_s += tree.last_arbitrate_wall_s();
    out.max_grant_overrun_w =
        std::max(out.max_grant_overrun_w, tree.max_grant_overrun_w());
  }
  const double wall = (perf::NowS() - start).value();
  out.wall_s_per_step = wall / steps;
  const double core_ticks_per_step =
      static_cast<double>(out.cores) * (cfg.control_period_s / cfg.tick_s);
  out.sim_core_ticks_per_s = wall > 0.0 ? steps * core_ticks_per_step / wall : 0.0;
  out.arbiter_us_per_period = arbiter_wall_s.value() / steps * 1e6;
  out.arbiter_overhead_pct =
      out.wall_s_per_step > 0.0 ? arbiter_wall_s.value() / steps / out.wall_s_per_step * 100.0
                                : 0.0;
  return out;
}

// --- 100k-core cluster section -----------------------------------------------

// The tentpole scale point: a >= 128k-core homogeneous fleet stepped through
// full control periods with every fast path engaged at once — multi-rate
// ticking, socket-level steady-state hold, replica memoization, and the
// hoisted-scratch control plane — so one leaf simulation (the class
// representative) serves the whole cluster and the steady-state step
// touches no heap at all.
struct Cluster100kTiming {
  int rows = 0;
  int racks_per_row = 0;
  int sockets_per_rack = 0;
  int cores = 0;
  int nodes = 0;
  int replica_classes = 0;
  int live_leaves = 0;
  double replica_hit_rate = 0.0;
  int measured_steps = 0;
  double wall_s_per_step = 0.0;
  double sim_core_ticks_per_s = 0.0;
  long allocs_per_step = 0;
  double peak_rss_mb = 0.0;
  Watts max_grant_overrun_w{0.0};
};

Cluster100kTiming RunCluster100k(bool quick) {
  Cluster100kTiming out;
  out.rows = 4;
  out.racks_per_row = 16;
  out.sockets_per_rack = 16;  // 1024 sockets x 128 cores = 131072 cores.

  RackSocketConfig proto{.platform = ManyCoreEpyc128()};
  proto.apps = ManyCoreSpreadMix(proto.platform.num_cores, /*rotate=*/0).apps;
  proto.policy = PolicyKind::kFrequencyShares;
  proto.seed = 42;
  proto.use_baseline_ips = false;

  const int leaves = out.rows * out.racks_per_row * out.sockets_per_rack;
  const Watts socket_floor = SocketFloorW(proto);
  const Watts socket_ceiling = SocketCeilingW(proto);
  const Watts budget_w{(socket_floor + (socket_ceiling - socket_floor) * 0.6) *
                       static_cast<double>(leaves)};

  // Identical seeds + the shares arbiter: grants are measurement-
  // independent and bitwise-stable, so the whole fleet collapses into one
  // replica class and every socket daemon reaches steady-state hold.
  BudgetTreeConfig cfg = MakeUniformCluster(out.rows, out.racks_per_row, out.sockets_per_rack,
                                            proto, budget_w, /*decorrelate_seeds=*/false);
  cfg.arbiter = RackArbiterKind::kShares;
  cfg.tick.policy = TickPolicy::kMultiRate;
  cfg.tick.socket_hold = true;
  cfg.tick.memoize_replicas = true;
  cfg.record_history = false;

  BudgetTree tree(cfg);
  out.cores = leaves * proto.platform.num_cores;
  out.nodes = tree.num_nodes();
  out.replica_classes = tree.num_replica_classes();

  // Warmup: the daemon takes ~6 periods to converge its P-state targets
  // (epoch movements stop), then the hold predicate needs
  // kQuietPeriodsToHold consecutive quiet periods before skipping steps.
  const int warmup = 12;
  for (int s = 0; s < warmup; s++) {
    tree.Step();
  }
  out.max_grant_overrun_w = tree.max_grant_overrun_w();

  const int steps = quick ? 4 : 16;
  out.measured_steps = steps;
  const long allocs_before = AllocationCount();
  const Seconds start = perf::NowS();
  for (int s = 0; s < steps; s++) {
    tree.Step();
    out.max_grant_overrun_w = std::max(out.max_grant_overrun_w, tree.max_grant_overrun_w());
  }
  const double wall = (perf::NowS() - start).value();
  const long allocs = AllocationCount() - allocs_before;
  out.allocs_per_step = (allocs + steps - 1) / steps;
  out.live_leaves = tree.num_live_leaves();
  out.replica_hit_rate = tree.replica_hit_rate();
  out.wall_s_per_step = wall / steps;
  const double core_ticks_per_step =
      static_cast<double>(out.cores) * (cfg.control_period_s / cfg.tick_s);
  out.sim_core_ticks_per_s = wall > 0.0 ? steps * core_ticks_per_step / wall : 0.0;

  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
  }
  return out;
}

// --- Serving-fleet section ---------------------------------------------------

// The flagship serving demonstration (ROADMAP item 2): 256 open-loop
// websearch sockets under one BudgetTree, 1e8 simulated users (2e9
// requests/day) with a hot-shard skew, compared across the fleet policy
// axis at the same cluster cap.  The policy axis is expanded through the
// declarative SweepSpec API — this section is also the sweep machinery's
// integration bench.
struct FleetBenchRow {
  std::string policy;
  size_t slo_violations = 0;
  size_t measured_periods = 0;  // Socket-periods with enough samples.
  size_t completed = 0;
  Watts avg_pkg_w{0.0};
  Seconds fleet_p90{0.0};
  Seconds hot_p90{0.0};  // Worst per-socket cumulative p90 among hot shards.
  Watts max_grant_overrun_w{0.0};
  double wall_s_per_step = 0.0;
  double sockets_stepped_per_s = 0.0;
};

struct FleetBenchResult {
  int sockets = 0;
  double simulated_users = 0.0;
  double requests_per_day = 0.0;
  Seconds slo_p90{0.0};
  std::vector<FleetBenchRow> rows;
};

FleetBenchResult RunFleetBench(bool quick, int jobs) {
  FleetBenchResult out;

  FleetConfig base;  // 4 x 8 x 8 = 256 sockets; defaults are the calibrated
                     // hot-shard regime (see FleetConfig).
  base.seed = 42;

  SweepSpec spec;
  spec.name = "fleet-bench";
  spec.target = SweepTarget::kFleet;
  spec.fleet_base = base;
  spec.axes.fleet_policies = {FleetPolicyStatic(), FleetPolicyPriority(),
                              FleetPolicySloFeedback()};
  spec.fleet_warmup_s = Seconds{quick ? 6.0 : 10.0};
  spec.fleet_measure_s = Seconds{quick ? 14.0 : 40.0};

  out.sockets = FleetSockets(base);
  out.simulated_users = base.users;
  out.requests_per_day = base.users * base.requests_per_user_per_day;
  out.slo_p90 = base.slo.slo_p90;

  const int total_periods =
      static_cast<int>((spec.fleet_warmup_s + spec.fleet_measure_s) / base.control_period_s);
  ThreadPool pool(jobs);
  for (const SweepPoint& p : ExpandSweep(spec)) {
    const Seconds start = perf::NowS();
    const FleetResult r =
        RunFleet(p.fleet, spec.fleet_warmup_s, spec.fleet_measure_s, &pool);
    const double wall = (perf::NowS() - start).value();

    FleetBenchRow row;
    row.policy = p.plotkey;
    row.slo_violations = r.total_slo_violations;
    row.measured_periods = r.total_measured_periods;
    row.completed = r.summary.completed_requests;
    row.avg_pkg_w = r.summary.avg_pkg_w;
    row.fleet_p90 = r.summary.p90_latency;
    for (const FleetSocketResult& s : r.sockets) {
      if (s.hot) {
        row.hot_p90 = std::max(row.hot_p90, s.p90);
      }
    }
    row.max_grant_overrun_w = r.max_grant_overrun_w;
    row.wall_s_per_step = total_periods > 0 ? wall / total_periods : 0.0;
    row.sockets_stepped_per_s =
        wall > 0.0 ? static_cast<double>(out.sockets) * total_periods / wall : 0.0;
    out.rows.push_back(row);
  }
  return out;
}

struct FaultRow {
  std::string schedule;
  bool hardened = false;
  Watts avg_pkg_w{0.0};
  Watts max_pkg_w{0.0};
  Watts overshoot_w{0.0};
  int invalid_samples = 0;
  int fallback_periods = 0;
  int failed_programs = 0;
  int dropped_writes = 0;
};

std::vector<FaultRow> RunFaultTolerance(bool quick) {
  constexpr Watts kLimitW{55.0};
  ScenarioConfig base{.platform = SkylakeXeon4114()};
  base.apps = SkylakePriorityMixes()[2].apps;
  base.policy = PolicyKind::kFrequencyShares;
  base.limit_w = kLimitW;
  base.warmup_s = quick ? Seconds{5.0} : Seconds{20.0};
  base.measure_s = quick ? Seconds{30.0} : Seconds{90.0};
  base.seed = 42;

  std::vector<FaultScenario> schedules =
      FaultSchedules(base.warmup_s + Seconds{4.0}, base.warmup_s + base.measure_s - Seconds{4.0}, /*seed=*/1234);
  // Representative subset: the schedule the naive daemon fails hardest on,
  // the garbage-power storm, and the everything-at-once mix.
  const char* kKeep[] = {"stale-burst", "wrap-storm", "mixed-storm"};
  std::vector<ScenarioConfig> configs;
  std::vector<FaultRow> rows;
  for (const char* keep : kKeep) {
    for (const FaultScenario& s : schedules) {
      if (s.label != keep) {
        continue;
      }
      for (bool hardened : {false, true}) {
        ScenarioConfig c = base;
        c.run.daemon.faults = s.plan;
        c.run.daemon.degrade = hardened;
        // The naive baseline violates the power ceiling by design; only the
        // hardened runs keep the fatal auditor on.
        c.run.daemon.audit = hardened;
        configs.push_back(c);
        rows.push_back(FaultRow{.schedule = s.label, .hardened = hardened});
      }
    }
  }
  const std::vector<ScenarioResult> results = RunScenarios(configs);
  for (size_t i = 0; i < rows.size(); i++) {
    const ScenarioResult& r = results[i];
    rows[i].avg_pkg_w = r.avg_pkg_w;
    rows[i].max_pkg_w = r.max_pkg_w;
    rows[i].overshoot_w = std::max(Watts{0.0}, r.max_pkg_w - kLimitW);
    rows[i].invalid_samples = r.fault_stats.invalid_samples;
    rows[i].fallback_periods = r.fault_stats.fallback_periods;
    rows[i].failed_programs = r.fault_stats.failed_programs;
    rows[i].dropped_writes = r.fault_counts.dropped_writes;
  }
  return rows;
}

// --- Observability section ---------------------------------------------------

struct ObsResult {
  // Full daemon step (tick + Step) with no sink vs a bound TraceRecorder.
  double step_off_ns = 0.0;
  double step_on_ns = 0.0;
  double overhead_pct = 0.0;
  // Events recorded by the bound recorder (> 0) and by an unbound recorder
  // alive during the tracing-off run (must stay 0 — the disabled-tracer
  // guarantee the obs tests also assert).
  uint64_t trace_events = 0;
  uint64_t trace_disabled_events = 0;
  // Scalar metrics (counters + gauges) from a traced scenario run.
  std::vector<std::pair<std::string, double>> metrics;
};

ObsResult RunObs(bool quick) {
  const Seconds min_time{quick ? 0.05 : 0.3};
  ObsResult out;

  auto step_ns = [&](ObsSink* sink, int16_t shard) {
    Package pkg(SkylakeXeon4114());
    MsrFile msr(&pkg);
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<ManagedApp> apps;
    for (int i = 0; i < 10; i++) {
      procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + static_cast<uint64_t>(i)));
      pkg.AttachWork(i, procs.back().get());
      apps.push_back(ManagedApp{.name = "gcc",
                                .cpu = i,
                                .shares = 10.0 + 9.0 * i,
                                .high_priority = i % 2 == 0,
                                .baseline_ips = Ips{2e9}});
    }
    DaemonConfig dcfg{.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{45.0}};
    dcfg.obs = DaemonObs{.sink = sink, .shard = shard};
    PowerDaemon daemon(&msr, apps, dcfg);
    daemon.Start();
    const perf::Result r = perf::MeasureLoop(
        [&pkg, &daemon] {
          pkg.Tick(Seconds{0.001});
          daemon.Step();
        },
        min_time);
    return r.ns_per_iter;
  };

  // An unbound recorder stays alive through the tracing-off run; any event
  // leaking into it would break the branch-on-null contract.
  obs::TraceRecorder disabled_recorder;
  out.step_off_ns = step_ns(nullptr, 0);
  out.trace_disabled_events = disabled_recorder.recorded();

  obs::TraceRecorder recorder;
  out.step_on_ns = step_ns(&recorder, 0);
  out.trace_events = recorder.recorded();
  out.overhead_pct =
      out.step_off_ns > 0.0 ? 100.0 * (out.step_on_ns - out.step_off_ns) / out.step_off_ns : 0.0;

  // Scalar metrics from a short traced scenario, so CI archives the metric
  // names the registry exports alongside the timings.
  ScenarioConfig c = RepresentativeConfig(PolicyKind::kFrequencyShares, /*quick=*/true);
  c.run.obs.trace = true;
  const ScenarioResult r = RunScenario(c);
  for (const obs::MetricValue& m : r.metrics) {
    if (m.kind != obs::MetricValue::Kind::kHistogram) {
      out.metrics.emplace_back(m.name, m.value);
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

int WriteJson(const Options& opt, int jobs, const std::vector<MicroResult>& micro,
              const ScalingResult& scaling, const std::vector<ScenarioTiming>& scenarios,
              size_t batch_count, Seconds serial_s, Seconds parallel_s,
              const ClusterTiming& cluster, const Cluster100kTiming& cluster_100k,
              const FleetBenchResult& fleet, const std::vector<FaultRow>& faults,
              const ObsResult& obs) {
  FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"host\": {\n");
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "    \"jobs\": %d,\n", jobs);
  std::fprintf(f, "    \"quick\": %s\n", opt.quick ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"micro\": [\n");
  for (size_t i = 0; i < micro.size(); i++) {
    std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_iter\": %.1f}%s\n",
                 JsonEscape(micro[i].name).c_str(), micro[i].ns_per_iter,
                 i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scaling\": {\n");
  std::fprintf(f, "    \"package_tick\": [\n");
  for (size_t i = 0; i < scaling.package_tick.size(); i++) {
    const ScalingRow& r = scaling.package_tick[i];
    std::fprintf(f,
                 "      {\"cores\": %d, \"ns_per_iter\": %.1f, \"ns_per_core\": %.2f}%s\n",
                 r.cores, r.ns_per_iter, r.ns_per_core,
                 i + 1 < scaling.package_tick.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"tick_engine\": [\n");
  for (size_t i = 0; i < scaling.tick_engine.size(); i++) {
    const TickEngineRow& r = scaling.tick_engine[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"kernel\": \"%s\", \"ns_per_iter\": %.1f, "
                 "\"ns_per_core\": %.2f, \"speedup_vs_scalar\": %.2f}%s\n",
                 JsonEscape(r.name).c_str(), JsonEscape(r.kernel).c_str(),
                 r.ns_per_iter, r.ns_per_core, r.speedup_vs_scalar,
                 i + 1 < scaling.tick_engine.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f,
               "    \"rack_tick\": {\"sockets\": %d, \"wall_s_per_step\": %.4f, "
               "\"sim_core_ticks_per_s\": %.0f},\n",
               scaling.rack_tick.sockets, scaling.rack_tick.wall_s_per_step,
               scaling.rack_tick.sim_core_ticks_per_s);
  std::fprintf(f,
               "    \"rack_tick_multirate\": {\"sockets\": %d, \"wall_s_per_step\": %.4f, "
               "\"sim_core_ticks_per_s\": %.0f},\n",
               scaling.rack_tick_multirate.sockets,
               scaling.rack_tick_multirate.wall_s_per_step,
               scaling.rack_tick_multirate.sim_core_ticks_per_s);
  std::fprintf(f, "    \"steady_allocs_per_tick\": %ld\n", scaling.steady_allocs_per_tick);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < scenarios.size(); i++) {
    const ScenarioTiming& s = scenarios[i];
    const double rate = s.wall_s > Seconds{0.0} ? s.sim_s / s.wall_s : 0.0;
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"wall_s\": %.4f, \"sim_s\": %.1f, "
                 "\"sim_s_per_wall_s\": %.1f}%s\n",
                 JsonEscape(s.policy).c_str(), s.wall_s.value(), s.sim_s.value(), rate,
                 i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"batch\": {\n");
  std::fprintf(f, "    \"count\": %zu,\n", batch_count);
  std::fprintf(f, "    \"serial_wall_s\": %.4f,\n", serial_s.value());
  std::fprintf(f, "    \"parallel_wall_s\": %.4f,\n", parallel_s.value());
  std::fprintf(f, "    \"speedup\": %.2f\n", parallel_s > Seconds{0.0} ? serial_s / parallel_s : 0.0);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cluster\": {\n");
  std::fprintf(f, "    \"rows\": %d,\n", cluster.rows);
  std::fprintf(f, "    \"racks_per_row\": %d,\n", cluster.racks_per_row);
  std::fprintf(f, "    \"sockets_per_rack\": %d,\n", cluster.sockets_per_rack);
  std::fprintf(f, "    \"cores\": %d,\n", cluster.cores);
  std::fprintf(f, "    \"levels\": %d,\n", cluster.levels);
  std::fprintf(f, "    \"nodes\": %d,\n", cluster.nodes);
  std::fprintf(f, "    \"tick_policy\": \"%s\",\n", JsonEscape(cluster.tick_policy).c_str());
  std::fprintf(f, "    \"wall_s_per_step\": %.4f,\n", cluster.wall_s_per_step);
  std::fprintf(f, "    \"sim_core_ticks_per_s\": %.0f,\n", cluster.sim_core_ticks_per_s);
  std::fprintf(f, "    \"arbiter_us_per_period\": %.1f,\n", cluster.arbiter_us_per_period);
  std::fprintf(f, "    \"arbiter_overhead_pct\": %.4f,\n", cluster.arbiter_overhead_pct);
  std::fprintf(f, "    \"max_grant_overrun_w\": %.9f\n", cluster.max_grant_overrun_w.value());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cluster_100k\": {\n");
  std::fprintf(f, "    \"rows\": %d,\n", cluster_100k.rows);
  std::fprintf(f, "    \"racks_per_row\": %d,\n", cluster_100k.racks_per_row);
  std::fprintf(f, "    \"sockets_per_rack\": %d,\n", cluster_100k.sockets_per_rack);
  std::fprintf(f, "    \"cores\": %d,\n", cluster_100k.cores);
  std::fprintf(f, "    \"nodes\": %d,\n", cluster_100k.nodes);
  std::fprintf(f, "    \"replica_classes\": %d,\n", cluster_100k.replica_classes);
  std::fprintf(f, "    \"live_leaves\": %d,\n", cluster_100k.live_leaves);
  std::fprintf(f, "    \"replica_hit_rate\": %.6f,\n", cluster_100k.replica_hit_rate);
  std::fprintf(f, "    \"measured_steps\": %d,\n", cluster_100k.measured_steps);
  std::fprintf(f, "    \"wall_s_per_step\": %.6f,\n", cluster_100k.wall_s_per_step);
  std::fprintf(f, "    \"sim_core_ticks_per_s\": %.0f,\n", cluster_100k.sim_core_ticks_per_s);
  std::fprintf(f, "    \"allocs_per_step\": %ld,\n", cluster_100k.allocs_per_step);
  std::fprintf(f, "    \"peak_rss_mb\": %.1f,\n", cluster_100k.peak_rss_mb);
  std::fprintf(f, "    \"max_grant_overrun_w\": %.9f\n",
               cluster_100k.max_grant_overrun_w.value());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fleet\": {\n");
  std::fprintf(f, "    \"sockets\": %d,\n", fleet.sockets);
  std::fprintf(f, "    \"simulated_users\": %g,\n", fleet.simulated_users);
  std::fprintf(f, "    \"requests_per_day\": %g,\n", fleet.requests_per_day);
  std::fprintf(f, "    \"slo_p90_s\": %.6f,\n", fleet.slo_p90.value());
  std::fprintf(f, "    \"rows\": [\n");
  for (size_t i = 0; i < fleet.rows.size(); i++) {
    const FleetBenchRow& r = fleet.rows[i];
    std::fprintf(f,
                 "      {\"policy\": \"%s\", \"slo_violations\": %zu, "
                 "\"measured_periods\": %zu, \"completed\": %zu, \"avg_pkg_w\": %.2f, "
                 "\"fleet_p90_s\": %.6f, \"hot_p90_s\": %.6f, "
                 "\"max_grant_overrun_w\": %.9f, \"wall_s_per_step\": %.4f, "
                 "\"sockets_stepped_per_s\": %.0f}%s\n",
                 JsonEscape(r.policy).c_str(), r.slo_violations, r.measured_periods,
                 r.completed, r.avg_pkg_w.value(), r.fleet_p90.value(), r.hot_p90.value(),
                 r.max_grant_overrun_w.value(), r.wall_s_per_step,
                 r.sockets_stepped_per_s, i + 1 < fleet.rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fault_tolerance\": [\n");
  for (size_t i = 0; i < faults.size(); i++) {
    const FaultRow& r = faults[i];
    std::fprintf(f,
                 "    {\"schedule\": \"%s\", \"mode\": \"%s\", \"avg_pkg_w\": %.2f, "
                 "\"max_pkg_w\": %.2f, \"overshoot_w\": %.2f, \"invalid_samples\": %d, "
                 "\"fallback_periods\": %d, \"failed_programs\": %d, \"dropped_writes\": %d}%s\n",
                 JsonEscape(r.schedule).c_str(), r.hardened ? "hardened" : "naive",
                 r.avg_pkg_w.value(), r.max_pkg_w.value(), r.overshoot_w.value(),
                 r.invalid_samples, r.fallback_periods,
                 r.failed_programs, r.dropped_writes, i + 1 < faults.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"obs\": {\n");
  std::fprintf(f, "    \"daemon_step_off_ns\": %.1f,\n", obs.step_off_ns);
  std::fprintf(f, "    \"daemon_step_on_ns\": %.1f,\n", obs.step_on_ns);
  std::fprintf(f, "    \"overhead_pct\": %.2f,\n", obs.overhead_pct);
  std::fprintf(f, "    \"trace_events\": %llu,\n",
               static_cast<unsigned long long>(obs.trace_events));
  std::fprintf(f, "    \"trace_disabled_events\": %llu,\n",
               static_cast<unsigned long long>(obs.trace_disabled_events));
  std::fprintf(f, "    \"metrics\": {\n");
  for (size_t i = 0; i < obs.metrics.size(); i++) {
    std::fprintf(f, "      \"%s\": %g%s\n", JsonEscape(obs.metrics[i].first).c_str(),
                 obs.metrics[i].second, i + 1 < obs.metrics.size() ? "," : "");
  }
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return 0;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      opt.jobs = static_cast<int>(std::strtol(arg + 7, nullptr, 10));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opt.out = arg + 6;
    } else {
      std::fprintf(stderr, "usage: perf_harness [--quick] [--jobs=N] [--out=PATH]\n");
      return 2;
    }
  }
  const int jobs = opt.jobs > 0 ? opt.jobs : ThreadPool::DefaultJobs();

  std::printf("perf_harness: micro timings\n");
  const std::vector<MicroResult> micro = RunMicro(opt.quick);
  for (const MicroResult& m : micro) {
    std::printf("  %-28s %10.1f ns\n", m.name.c_str(), m.ns_per_iter);
  }

  std::printf("perf_harness: scaling (SoA tick engine)\n");
  const ScalingResult scaling = RunScaling(opt.quick);
  for (const ScalingRow& r : scaling.package_tick) {
    std::printf("  package_tick %3d cores  %10.1f ns  (%6.2f ns/core)\n", r.cores, r.ns_per_iter,
                r.ns_per_core);
  }
  for (const TickEngineRow& r : scaling.tick_engine) {
    std::printf("  %-32s %10.1f ns  (kernel=%s, %.2fx vs scalar)\n",
                r.name.c_str(), r.ns_per_iter, r.kernel.c_str(),
                r.speedup_vs_scalar);
  }
  std::printf("  rack_tick %d sockets    %8.4f s/step  (%.0f core-ticks/s)\n",
              scaling.rack_tick.sockets, scaling.rack_tick.wall_s_per_step,
              scaling.rack_tick.sim_core_ticks_per_s);
  std::printf("  rack_tick_multirate %d sockets %8.4f s/step  (%.0f core-ticks/s)\n",
              scaling.rack_tick_multirate.sockets,
              scaling.rack_tick_multirate.wall_s_per_step,
              scaling.rack_tick_multirate.sim_core_ticks_per_s);
  std::printf("  steady_allocs_per_tick %ld\n", scaling.steady_allocs_per_tick);
  if (scaling.steady_allocs_per_tick != 0) {
    std::fprintf(stderr,
                 "perf_harness: FAIL — steady-state Package::Tick performed %ld allocations "
                 "per tick (expected 0)\n",
                 scaling.steady_allocs_per_tick);
    return 1;
  }

  const PolicyKind kPolicies[] = {PolicyKind::kRaplOnly, PolicyKind::kPriority,
                                  PolicyKind::kFrequencyShares, PolicyKind::kPerformanceShares,
                                  PolicyKind::kPowerShares};

  // Warm the Standalone() baseline cache so per-policy wall times measure the
  // scenario itself, not the shared one-time baselines.
  (void)RunScenario(RepresentativeConfig(PolicyKind::kStatic, /*quick=*/true));

  std::printf("perf_harness: per-policy scenarios\n");
  std::vector<ScenarioTiming> scenarios;
  std::vector<ScenarioConfig> batch_configs;
  for (PolicyKind policy : kPolicies) {
    const ScenarioConfig config = RepresentativeConfig(policy, opt.quick);
    const Seconds start = perf::NowS();
    const ScenarioResult result = RunScenario(config);
    const Seconds wall = perf::NowS() - start;
    perf::DoNotOptimize(result);
    scenarios.push_back(
        {PolicyKindName(policy), wall, config.warmup_s + config.measure_s});
    std::printf("  %-20s %8.3f s wall for %5.1f sim-s\n", PolicyKindName(policy), wall.value(),
                (config.warmup_s + config.measure_s).value());
    batch_configs.push_back(config);
    batch_configs.push_back(config);  // Two per policy so the batch has depth.
  }

  std::printf("perf_harness: batch of %zu scenarios, jobs=%d\n", batch_configs.size(), jobs);
  Seconds serial_s{0.0};
  {
    const Seconds start = perf::NowS();
    for (const ScenarioConfig& config : batch_configs) {
      perf::DoNotOptimize(RunScenario(config));
    }
    serial_s = perf::NowS() - start;
  }
  Seconds parallel_s{0.0};
  {
    ThreadPool pool(jobs);
    const Seconds start = perf::NowS();
    perf::DoNotOptimize(RunScenarios(batch_configs, &pool));
    parallel_s = perf::NowS() - start;
  }
  std::printf("  serial %.3f s, parallel %.3f s, speedup %.2fx\n", serial_s.value(),
              parallel_s.value(), parallel_s > Seconds{0.0} ? serial_s / parallel_s : 0.0);

  std::printf("perf_harness: cluster budget tree\n");
  const ClusterTiming cluster = RunCluster(opt.quick, jobs);
  std::printf(
      "  %dx%dx%d topology, %d cores, %d nodes  %8.4f s/step  (%.0f core-ticks/s)\n",
      cluster.rows, cluster.racks_per_row, cluster.sockets_per_rack, cluster.cores,
      cluster.nodes, cluster.wall_s_per_step, cluster.sim_core_ticks_per_s);
  std::printf("  arbiter %8.1f us/period (%.4f%% of step), max_grant_overrun %.9f W\n",
              cluster.arbiter_us_per_period, cluster.arbiter_overhead_pct,
              cluster.max_grant_overrun_w.value());
  if (cluster.max_grant_overrun_w > Watts{1e-6}) {
    std::fprintf(stderr,
                 "perf_harness: FAIL — cluster grant sums exceeded a parent grant by %.9f W "
                 "(cap invariant violated)\n",
                 cluster.max_grant_overrun_w.value());
    return 1;
  }

  std::printf("perf_harness: 100k-core cluster (hold + memoization + sharding)\n");
  const Cluster100kTiming cluster_100k = RunCluster100k(opt.quick);
  std::printf(
      "  %dx%dx%d topology, %d cores, %d replica classes, %d live leaves\n",
      cluster_100k.rows, cluster_100k.racks_per_row, cluster_100k.sockets_per_rack,
      cluster_100k.cores, cluster_100k.replica_classes, cluster_100k.live_leaves);
  std::printf("  %8.6f s/step  %.3g core-ticks/s  hit_rate %.4f  rss %.1f MB  allocs/step %ld\n",
              cluster_100k.wall_s_per_step, cluster_100k.sim_core_ticks_per_s,
              cluster_100k.replica_hit_rate, cluster_100k.peak_rss_mb,
              cluster_100k.allocs_per_step);
  if (cluster_100k.allocs_per_step != 0) {
    std::fprintf(stderr,
                 "perf_harness: FAIL — 100k-core steady-state Step performed %ld allocations "
                 "per step (expected 0)\n",
                 cluster_100k.allocs_per_step);
    return 1;
  }
  if (cluster_100k.sim_core_ticks_per_s < 1e9) {
    std::fprintf(stderr,
                 "perf_harness: FAIL — 100k-core cluster stepped at %.3g sim-core-ticks/s "
                 "(floor 1e9)\n",
                 cluster_100k.sim_core_ticks_per_s);
    return 1;
  }
  if (cluster_100k.max_grant_overrun_w > Watts{1e-6}) {
    std::fprintf(stderr,
                 "perf_harness: FAIL — 100k-core cluster grant sums exceeded a parent grant "
                 "by %.9f W (cap invariant violated)\n",
                 cluster_100k.max_grant_overrun_w.value());
    return 1;
  }

  std::printf("perf_harness: serving fleet (open-loop websearch, SLO feedback)\n");
  const FleetBenchResult fleet = RunFleetBench(opt.quick, jobs);
  std::printf("  %d sockets, %.3g simulated users (%.3g requests/day), SLO p90 %.0f ms\n",
              fleet.sockets, fleet.simulated_users, fleet.requests_per_day,
              fleet.slo_p90.value() * 1e3);
  for (const FleetBenchRow& r : fleet.rows) {
    std::printf(
        "  %-14s violations %5zu/%5zu  fleet_p90 %7.1f ms  hot_p90 %7.1f ms  "
        "avg %7.0f W  %6.0f sockets-stepped/s\n",
        r.policy.c_str(), r.slo_violations, r.measured_periods,
        r.fleet_p90.value() * 1e3, r.hot_p90.value() * 1e3, r.avg_pkg_w.value(),
        r.sockets_stepped_per_s);
  }
  {
    const FleetBenchRow* st = nullptr;
    const FleetBenchRow* fb = nullptr;
    for (const FleetBenchRow& r : fleet.rows) {
      if (r.policy == "static") {
        st = &r;
      } else if (r.policy == "slo-feedback") {
        fb = &r;
      }
      if (r.max_grant_overrun_w > Watts{1e-6}) {
        std::fprintf(stderr,
                     "perf_harness: FAIL — fleet policy %s violated the cap invariant "
                     "by %.9f W\n",
                     r.policy.c_str(), r.max_grant_overrun_w.value());
        return 1;
      }
    }
    if (st == nullptr || fb == nullptr) {
      std::fprintf(stderr, "perf_harness: FAIL — fleet sweep missing a policy row\n");
      return 1;
    }
    if (fleet.sockets < 256 || fleet.simulated_users < 1e6) {
      std::fprintf(stderr,
                   "perf_harness: FAIL — fleet below the flagship scale "
                   "(%d sockets, %.3g users)\n",
                   fleet.sockets, fleet.simulated_users);
      return 1;
    }
    if (fb->slo_violations >= st->slo_violations) {
      std::fprintf(stderr,
                   "perf_harness: FAIL — SLO feedback recorded %zu violations vs %zu "
                   "for static shares (expected strictly fewer at the same cap)\n",
                   fb->slo_violations, st->slo_violations);
      return 1;
    }
  }

  std::printf("perf_harness: fault-tolerance schedules\n");
  const std::vector<FaultRow> faults = RunFaultTolerance(opt.quick);
  for (const FaultRow& r : faults) {
    std::printf("  %-12s %-8s max %5.1f W overshoot %4.1f W invalid %3d fallback %3d\n",
                r.schedule.c_str(), r.hardened ? "hardened" : "naive", r.max_pkg_w.value(),
                r.overshoot_w.value(),
                r.invalid_samples, r.fallback_periods);
  }

  std::printf("perf_harness: observability overhead\n");
  const ObsResult obs = RunObs(opt.quick);
  std::printf("  daemon_step tracing off %10.1f ns, on %10.1f ns  (%+.2f%%)\n", obs.step_off_ns,
              obs.step_on_ns, obs.overhead_pct);
  std::printf("  trace_events %llu, trace_disabled_events %llu\n",
              static_cast<unsigned long long>(obs.trace_events),
              static_cast<unsigned long long>(obs.trace_disabled_events));
  if (obs.trace_disabled_events != 0) {
    std::fprintf(stderr,
                 "perf_harness: FAIL — %llu events recorded with tracing disabled (expected 0)\n",
                 static_cast<unsigned long long>(obs.trace_disabled_events));
    return 1;
  }

  return WriteJson(opt, jobs, micro, scaling, scenarios, batch_configs.size(), serial_s,
                   parallel_s, cluster, cluster_100k, fleet, faults, obs);
}

}  // namespace
}  // namespace papd

int main(int argc, char** argv) { return papd::Main(argc, argv); }
