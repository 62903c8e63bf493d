// Cross-host perf rows: times the two measurements whose gates compare
// against numbers taken on another host, and writes them as JSON for
// tools/check_bench_json.py --baseline BENCH_scenarios.json.
//
//   - micro:   package_tick_10core_gcc, one Package::Tick of the 10-core
//              Skylake running gcc on every core, with tracing disabled
//              (the PAPD_TRACE_* macros are branch-on-null, so this hot tick
//              must not move);
//   - cluster: one BudgetTree control period at datacenter scale (2 rows x
//              4 racks x 4 64-core sockets = 2048 simulated cores), reporting
//              sim-core-ticks/s, the arbiter's per-period overhead, and the
//              worst cap-invariant slack.
//
// Every other perf gate is a ctest case on the host it measures (see
// EXPERIMENTS.md).  The windows are the short ones the checked-in
// BENCH_scenarios.json was measured with.  PAPD_JOBS sets the cluster's
// pool width (ThreadPool::DefaultJobs()).
//
// Usage: perf_harness [--out=PATH]   (default: BENCH_scenarios.json)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/perf_util.h"
#include "src/cluster/budget_tree.h"
#include "src/common/thread_pool.h"
#include "src/cpusim/package.h"
#include "src/experiments/scenarios.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

constexpr Seconds kMinTime{0.05};

// Nanoseconds per Package::Tick, 10-core Skylake, gcc on every core.
double PackageTick10CoreGccNs() {
  Package pkg(SkylakeXeon4114());
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
    pkg.AttachWork(i, procs.back().get());
  }
  return perf::MeasureLoop([&pkg] { pkg.Tick(Seconds{0.001}); }, kMinTime).ns_per_iter;
}

// One BudgetTree control period at datacenter scale.
struct ClusterTiming {
  int rows = 0;
  int racks_per_row = 0;
  int sockets_per_rack = 0;
  int cores = 0;   // Total simulated cores across all leaves.
  int levels = 0;  // Tree depth (dc -> row -> rack -> socket = 4).
  int nodes = 0;
  double wall_s_per_step = 0.0;
  double sim_core_ticks_per_s = 0.0;
  // Control-plane cost: the aggregate+ladder+arbitrate pass per period.
  double arbiter_us_per_period = 0.0;
  double arbiter_overhead_pct = 0.0;
  // Worst (sum of child grants) - (parent grant) over the run; must be ~0.
  Watts max_grant_overrun_w{0.0};
};

ClusterTiming RunCluster(int jobs) {
  ClusterTiming out;
  out.rows = 2;
  out.racks_per_row = 4;
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
  // engine is how the tree reaches cluster scale.
  cfg.tick.policy = TickPolicy::kMultiRate;

  BudgetTree tree(cfg);
  out.cores = leaves * proto.platform.num_cores;
  out.levels = tree.num_levels();
  out.nodes = tree.num_nodes();

  ThreadPool pool(jobs);
  tree.Step(&pool);  // Warmup period (caches, memo tables, daemon spin-up).
  out.max_grant_overrun_w = tree.max_grant_overrun_w();

  const int steps = 2;
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

int WriteJson(const std::string& path, int jobs, double tick_ns, const ClusterTiming& cluster) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"host\": {\n");
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "    \"jobs\": %d\n", jobs);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"micro\": [\n");
  std::fprintf(f, "    {\"name\": \"package_tick_10core_gcc\", \"ns_per_iter\": %.1f}\n", tick_ns);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"cluster\": {\n");
  std::fprintf(f, "    \"rows\": %d,\n", cluster.rows);
  std::fprintf(f, "    \"racks_per_row\": %d,\n", cluster.racks_per_row);
  std::fprintf(f, "    \"sockets_per_rack\": %d,\n", cluster.sockets_per_rack);
  std::fprintf(f, "    \"cores\": %d,\n", cluster.cores);
  std::fprintf(f, "    \"levels\": %d,\n", cluster.levels);
  std::fprintf(f, "    \"nodes\": %d,\n", cluster.nodes);
  std::fprintf(f, "    \"tick_policy\": \"multirate\",\n");
  std::fprintf(f, "    \"wall_s_per_step\": %.4f,\n", cluster.wall_s_per_step);
  std::fprintf(f, "    \"sim_core_ticks_per_s\": %.0f,\n", cluster.sim_core_ticks_per_s);
  std::fprintf(f, "    \"arbiter_us_per_period\": %.1f,\n", cluster.arbiter_us_per_period);
  std::fprintf(f, "    \"arbiter_overhead_pct\": %.4f,\n", cluster.arbiter_overhead_pct);
  std::fprintf(f, "    \"max_grant_overrun_w\": %.9f\n", cluster.max_grant_overrun_w.value());
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_scenarios.json";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: perf_harness [--out=PATH]\n");
      return 2;
    }
  }
  const int jobs = ThreadPool::DefaultJobs();

  const double tick_ns = PackageTick10CoreGccNs();
  std::printf("perf_harness: package_tick_10core_gcc %10.1f ns\n", tick_ns);

  const ClusterTiming cluster = RunCluster(jobs);
  std::printf(
      "perf_harness: cluster %dx%dx%d, %d cores, %d nodes  %8.4f s/step  (%.0f core-ticks/s)\n",
      cluster.rows, cluster.racks_per_row, cluster.sockets_per_rack, cluster.cores,
      cluster.nodes, cluster.wall_s_per_step, cluster.sim_core_ticks_per_s);
  std::printf("  arbiter %8.1f us/period (%.4f%% of step), max_grant_overrun %.9f W\n",
              cluster.arbiter_us_per_period, cluster.arbiter_overhead_pct,
              cluster.max_grant_overrun_w.value());

  return WriteJson(out, jobs, tick_ns, cluster);
}

}  // namespace
}  // namespace papd

int main(int argc, char** argv) { return papd::Main(argc, argv); }
