// Serving fleet: hundreds of open-loop websearch sockets under one
// BudgetTree, with tail latency fed back into the arbiter.
//
// This is ROADMAP item 2, the "millions of users" demonstration.  A Fleet
// builds a rows x racks x sockets BudgetTree whose leaves are serving
// SocketStacks (RackSocketConfig::websearch): each runs the open-loop
// WebSearch workload — Poisson arrivals, optionally diurnal-shaped, from its
// shard of a simulated user population.  The load balancer is a *sticky
// population shard*: users are assigned to sockets up front (weighted, so
// hot shards exist), not routed per request.
// Sticky sharding is what real search fleets do (a shard owns its index
// partition), and it keeps sockets share-nothing, so leaf stepping stays
// bit-identical serial vs parallel.
//
// Each control period the fleet:
//   1. steps the BudgetTree (leaves advance, measurements aggregate,
//      grants re-split top-down);
//   2. computes every socket's *windowed* p90 over the requests completed
//      that period, counts SLO violations, and feeds per-shard latency
//      histograms into the metrics registry;
//   3. under RackArbiterKind::kSloFeedback, bubbles violating-leaf
//      fractions up the tree, lets the SloFeedbackArbiter move per-node
//      share biases (bounded step + hysteresis), pushes the biases into
//      the tree for the next arbitration, and emits a kSloShift trace
//      event per moved node.
//
// Head-to-head policies (the fleet bench + sweep API compare these at the
// same cluster cap):
//   - static shares: RackArbiterKind::kShares, uniform socket shares;
//   - priority: kShares with hot shards marked high-priority (their share
//     weight doubled) — the oracle that knows the skew up front;
//   - SLO feedback: kSloFeedback, uniform shares, biases learned online.

#ifndef SRC_CLUSTER_FLEET_H_
#define SRC_CLUSTER_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/budget_tree.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"
#include "src/experiments/harness.h"
#include "src/obs/metrics.h"
#include "src/policy/slo_feedback.h"

namespace papd {

// Every fleet socket is a Skylake Xeon 4114 running frequency shares over
// the default WebSearch service, with no cpuburn neighbour (fleet.cc).
struct FleetConfig {
  // Topology: rows x racks_per_row x sockets_per_rack serving sockets.
  int rows = 4;
  int racks_per_row = 8;
  int sockets_per_rack = 8;

  // --- Offered load ----------------------------------------------------------
  // Simulated user population across the fleet; fleet request rate is
  // users * requests_per_user_per_day / 86400 (shape-modulated).  The
  // default is calibrated against the Skylake serving socket, whose
  // measured capacity curve is ~110 rps at 33 W, ~140 at 46 W, ~165 at
  // 59 W (it never draws more than ~56 W): cold shards offer ~81 rps —
  // comfortable at the default per-socket grant — while hot shards offer
  // ~153 rps, which needs ~59 W.  Hot shards are under capacity at high
  // grant but over it at the equal static split, which is exactly the
  // regime where feeding latency back into the split matters.
  double users = 1e8;
  static constexpr double requests_per_user_per_day = 20.0;
  ArrivalShape shape = ArrivalShape::kConstant;
  double diurnal_amplitude = 0.5;
  Seconds diurnal_period_s{86400.0};
  // Load skew: the first round(hot_fraction * sockets) sockets (contiguous,
  // so whole racks run hot and tree levels above the leaf matter) carry
  // 1.875x the per-socket user share (kHotMultiplier in fleet.cc).
  double hot_fraction = 0.125;
  // Record arrival timestamps on every socket (determinism tests only).
  bool record_arrivals = false;

  // --- Power budget ----------------------------------------------------------
  // Explicit cluster budget; 0 derives sockets * (floor + 0.34 * (ceiling -
  // floor)) from the platform's per-socket bounds (kCapFraction in
  // fleet.cc).
  Watts budget_w{0.0};

  // --- Policy ----------------------------------------------------------------
  RackArbiterKind arbiter = RackArbiterKind::kShares;
  // "Priority" fleet policy: double hot sockets' arbiter shares (kShares
  // semantics otherwise).
  bool priority_hot = false;
  // Fleet SLO: 150 ms p90.  The service-time distribution alone (mean
  // ~40 ms, exponential) puts an unloaded socket's p90 near 110 ms, so
  // anything tighter is unmeetable at any grant; max_bias 2.0 is enough to
  // double a hot shard's proportional slice without starving cold rows.
  static constexpr SloFeedbackOptions slo{.slo_p90 = Seconds{0.150}, .max_bias = 2.0};

  // --- Mechanics -------------------------------------------------------------
  static constexpr Seconds control_period_s{1.0};
  static constexpr Seconds tick_s{0.001};
  uint64_t seed = 42;
  ObsSink* obs = nullptr;
  static constexpr TickOptions tick{};
};

int FleetSockets(const FleetConfig& cfg);

struct FleetSocketResult {
  int node = -1;          // Flat BudgetTree node index.
  std::string path;       // "dc/row{r}/rack{k}/socket{s}".
  bool hot = false;
  Watts grant_w{0.0};
  Seconds p50{0.0};
  Seconds p90{0.0};
  Seconds p99{0.0};
  // Requests completed and admitted since the last ResetStats.
  size_t completed = 0;
  uint64_t arrivals = 0;
  // Periods (with enough samples) whose windowed p90 broke the SLO.
  size_t slo_violation_periods = 0;
  size_t measured_periods = 0;
  double mean_queue_depth = 0.0;
  size_t peak_queue_depth = 0;
};

struct FleetResult {
  // Shared reporting surface: cluster power, fleet-wide latency
  // percentiles, per-shard latency histograms in `metrics`.
  RunSummary summary;
  std::vector<FleetSocketResult> sockets;
  size_t total_slo_violations = 0;
  size_t total_measured_periods = 0;
  Watts max_grant_overrun_w{0.0};
  int64_t periods = 0;
  // Offered load actually configured (for bench schema assertions).
  double simulated_users = 0.0;
  double requests_per_day = 0.0;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig cfg);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // One control period: tree step, per-socket window stats, SLO feedback.
  // The tree steps on `pool` as BudgetTree::Step does: a null pool is the
  // caller, the pool must not be the one running the caller, and
  // concurrent steps on one pool take turns.
  void Step(ThreadPool* pool = nullptr);

  // Drops latency/violation/arrival accounting and the latency histograms
  // (call after warmup).
  void ResetStats();

  BudgetTree& tree() { return *tree_; }
  int num_sockets() const { return tree_->num_leaves(); }
  // Flat tree node per socket: the tree's leaves, ascending.
  const std::vector<int>& leaf_nodes() const { return tree_->leaves(); }
  bool socket_hot(int socket) const { return hot_[static_cast<size_t>(socket)]; }
  size_t violations(int socket) const {
    return violations_[static_cast<size_t>(socket)];
  }
  double share_bias(int node) const { return tree_->share_bias(node); }
  obs::MetricsRegistry& metrics() { return metrics_; }

  // Summarizes everything accumulated since the last ResetStats.
  FleetResult Collect();

 private:
  void UpdateWindowStats();
  void ApplySloFeedback();

  FleetConfig cfg_;
  std::unique_ptr<BudgetTree> tree_;
  std::vector<bool> hot_;         // Per socket.
  SloFeedbackArbiter arbiter_;

  // Per-socket window bookkeeping (indexes into WebSearch::latencies()).
  std::vector<size_t> latency_offset_;
  std::vector<size_t> violations_;
  std::vector<size_t> measured_periods_;
  std::vector<Seconds> window_p90_;
  std::vector<uint8_t> window_violated_;
  // Selects each window's p90; reused so no period reallocates.
  OrderStatistics<Seconds> window_latency_;

  // Per-tree-node scratch for the bottom-up violation aggregation.
  std::vector<int> violating_leaves_;
  std::vector<double> violation_fraction_;
  std::vector<Seconds> subtree_p90_;
  std::vector<double> bias_scratch_;

  // Cluster power accounting over the collection window.
  int64_t window_periods_ = 0;
  Watts root_power_sum_w_{0.0};
  Watts root_power_max_w_{0.0};
  Watts max_overrun_w_{0.0};

  obs::MetricsRegistry metrics_;
  std::vector<obs::Histogram*> latency_hist_;  // Per socket, seconds.
};

// Warmup, then a measured window, mirroring RunBudgetTree / RunScenario.
// Steps on `pool` as Fleet::Step does (null: on the caller), under the same
// rules for the pool.
FleetResult RunFleet(const FleetConfig& cfg, Seconds warmup_s, Seconds measure_s,
                     ThreadPool* pool = nullptr);

}  // namespace papd

#endif  // SRC_CLUSTER_FLEET_H_
