// Hierarchical power delivery: one budget, recursively split down a tree.
//
// The paper's min-funding share framework stops at a single socket.  Real
// deployments cap power at every level of the physical distribution
// hierarchy — breaker panels feed rows, rows feed racks, racks feed sockets
// — and FastCap-style cluster managers enforce a datacenter cap by
// re-splitting budgets hierarchically each period.  BudgetTree is that
// hierarchy: leaf nodes are per-socket stacks (SocketStack), interior nodes
// (rack, row, datacenter) each run the *same* shares/demand min-funding
// arbiter over their children — a flat rack is the one-level case
// (MakeFlatRack) — and each control period
//
//   1. every leaf advances one period of simulated time (fanned out on the
//      ThreadPool; leaves share no mutable state, so parallel results are
//      bit-identical to serial);
//   2. measured power aggregates bottom-up (a node's measurement is the sum
//      of its children's), filtered through the telemetry fault ladder;
//   3. grants flow top-down — the root clamps the cluster budget into its
//      [floor, ceiling], every interior node splits its grant across its
//      children with DistributeProportional, and leaf grants land via the
//      existing PowerDaemon::SetPowerLimit runtime cap-change path.
//
// Cap invariant.  A node's effective floor is max(configured floor, sum of
// child floors) — floors bubble up at construction — so every node's grant
// covers its children's minimums and sum(child grants) <= parent grant at
// every level of every period, enforced by an always-on PAPD_CHECK in the
// arbiter and asserted again by tests/budget_tree_test.cc.
//
// Cluster faults.  Two failure modes from operating real clusters, both
// declared up front (like the MSR FaultPlan) and windowed in control
// periods:
//   - kTelemetryStale: a subtree's power telemetry stops updating.  The
//     arbiter mirrors the daemon's degradation ladder: hold the last-good
//     measurement for 3 periods (kHold), then halve it every period toward
//     the subtree floor (kFallback) so a dead sensor cannot pin a generous
//     demand claim forever.
//   - kBreakerTrip: a node's breaker trips; its effective ceiling is
//     slashed to its floor for the fault window, revoking everything above
//     the guaranteed minimums (which stay feasible — floors bubbled up).

#ifndef SRC_CLUSTER_BUDGET_TREE_H_
#define SRC_CLUSTER_BUDGET_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/socket_stack.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"
#include "src/obs/trace.h"
#include "src/policy/min_funding.h"

namespace papd {

// Cluster-level fault kinds.  Every enumerator must have a row in the
// kClusterFaultHandlers table in budget_tree.cc (papd_lint's
// registry-completeness rule enforces this).
enum class ClusterFaultKind : uint8_t {
  kTelemetryStale = 0,  // Subtree telemetry frozen; arbiter runs the ladder.
  kBreakerTrip,         // Node ceiling slashed to its floor.
};

inline constexpr int kNumClusterFaultKinds = 2;

const char* ClusterFaultKindName(ClusterFaultKind kind);

// One declared fault: `kind` applied to the node at `node_path` (see
// BudgetTree::FindNode) for arbitrations closing periods
// [start_period, start_period + periods).
struct ClusterFault {
  ClusterFaultKind kind = ClusterFaultKind::kTelemetryStale;
  std::string node_path;
  int64_t start_period = 0;
  int64_t periods = 1;
};

// One node of the budget tree.  Leaves (empty `children`) run a full
// SocketStack described by `socket`; interior nodes only arbitrate.
// min/max_budget_w of 0 derive bounds: a leaf's from its socket platform
// (SocketFloorW/SocketCeilingW), an interior node's from its children.
// Nonzero values tighten the derived bounds (floors can only rise, ceilings
// only drop); an inverted result aborts at construction.
struct BudgetNodeConfig {
  std::string name;
  // Arbiter share weight in the parent's split.
  double shares = 1.0;
  Watts min_budget_w{0.0};
  Watts max_budget_w{0.0};
  std::vector<BudgetNodeConfig> children;
  // Required for leaves (empty `children`), ignored for interior nodes.
  std::optional<RackSocketConfig> socket;
};

struct BudgetTreeConfig {
  BudgetNodeConfig root;
  // Cluster-wide budget granted to the root each period.
  Watts budget_w{800.0};
  Seconds control_period_s{1.0};
  RackArbiterKind arbiter = RackArbiterKind::kShares;
  Seconds tick_s{0.001};
  // Shared sink: leaf daemons emit shard-tagged per-period events, the
  // arbiter emits one kClusterGrant per node per period.  Shard = flat node
  // index, so every node gets its own track.  Must be thread-safe
  // (TraceRecorder is) when Step() is given a pool.
  ObsSink* obs = nullptr;
  TickOptions tick;
  std::vector<ClusterFault> faults;
  // Record a PeriodRecord per Step.  Off for the 100k-core bench: at 10^3+
  // nodes the per-period snapshot dominates the step's allocations.
  bool record_history = true;
};

class BudgetTree {
 public:
  explicit BudgetTree(BudgetTreeConfig config);
  ~BudgetTree();

  BudgetTree(const BudgetTree&) = delete;
  BudgetTree& operator=(const BudgetTree&) = delete;

  // Advances every live leaf one control period, aggregates measurements
  // up, runs the fault ladder, and re-arbitrates grants down.  The live
  // leaves fan out through one ParallelFor(pool, ...) per period, one index
  // per leaf, claimed dynamically; a null pool advances them in pre-order
  // on the caller.  Results are bit-identical either way, and the
  // steady-state step allocates nothing.  The pool must not be the one
  // running the caller (ParallelFor then throws std::logic_error), and
  // steps of several trees sharing one pool from different threads take
  // turns each period.
  void Step(ThreadPool* pool = nullptr);

  // --- Topology (flat pre-order indexing; parent index < child index) ---
  int num_nodes() const;
  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  // Flat indices of every leaf, ascending (pre-order).
  const std::vector<int>& leaves() const { return leaves_; }
  // Leaves in `node`'s subtree (1 for a leaf).
  int leaf_count(int node) const;
  const std::string& node_path(int node) const;
  int parent(int node) const;
  int level(int node) const;  // Root = 0.
  const std::vector<int>& children(int node) const;
  bool is_leaf(int node) const;
  int num_levels() const { return num_levels_; }
  // Flat index of the node with this '/'-joined path ("dc/row0/rack1"), or
  // -1 when absent.
  int FindNode(const std::string& path) const;

  // --- Per-node state (valid after construction / the last Step) ---
  Watts grant_w(int node) const;
  Watts measured_w(int node) const;  // Raw bottom-up aggregate.
  Watts reported_w(int node) const;  // After the telemetry fault ladder.
  Watts floor_w(int node) const;     // Effective (bubbled-up) floor.
  Watts ceiling_w(int node) const;   // Effective ceiling.
  int stale_streak(int node) const;
  bool breaker_tripped(int node) const;

  Watts grant_sum_w(int node) const;  // Sum of `node`'s children's grants.
  // Largest (sum of child grants) - (parent grant) across interior nodes,
  // floored at zero — the cap-invariant slack; ~0 always.
  Watts max_grant_overrun_w() const;

  // Leaf internals (aborts on interior nodes).  Under replica memoization a
  // memoized leaf is materialized first (its representative's grant history
  // is replayed into a fresh stack), so external mutation through these
  // accessors always touches a live, self-consistent socket.
  Package& package(int node);
  const PowerDaemon& daemon(int node) const;
  // The whole per-socket pipeline (Fleet reads the websearch service and
  // its latency samples through this).
  SocketStack& stack(int node);

  // --- SLO-feedback share biasing (RackArbiterKind::kSloFeedback) -------
  // Per-node multiplicative share bias applied in every proportional split
  // (effective shares = configured shares * bias).  Only proportions move;
  // [floor, ceiling] bounds are untouched, so the cap invariant holds for
  // any bias vector.  Ignored unless the arbiter is kSloFeedback.  The
  // vector is indexed by flat node id and must have num_nodes() entries.
  void SetShareBias(const std::vector<double>& bias);
  double share_bias(int node) const { return share_bias_[static_cast<size_t>(node)]; }

  // --- Replica memoization (config_.tick.memoize_replicas) --------------
  // Leaves are grouped into equivalence classes: equal socket configs
  // (RackSocketConfig::operator==, every field) and bitwise-equal initial
  // grants.  Only one representative per class is simulated each period,
  // and its measurement fans out to the class.  A member whose grant
  // diverges from its representative's (bitwise) is materialized by
  // replaying the representative's recorded grant run-lengths, then steps
  // independently from that period on.
  int num_replica_classes() const { return static_cast<int>(classes_.size()); }
  // Leaves currently simulated for real (representatives + materialized).
  int num_live_leaves() const { return static_cast<int>(live_leaves_.size()); }
  // Fraction of leaf-periods so far that were served by fan-out instead of
  // simulation; 0 when memoization is off.
  double replica_hit_rate() const;

  Seconds now() const;
  int64_t periods() const { return period_; }
  // Wall-clock cost of the last aggregate+ladder+arbitrate pass (excludes
  // the leaf simulation itself) — the tree's control-plane overhead.
  Seconds last_arbitrate_wall_s() const { return last_arbitrate_wall_s_; }

  // One row per completed Step(): the grants in force during the period
  // and the (raw / ladder-filtered) power measured over it, indexed by
  // flat node id.
  struct PeriodRecord {
    Seconds end_s{0.0};
    std::vector<Watts> grants_w;
    std::vector<Watts> measured_w;
    std::vector<Watts> reported_w;
  };
  const std::vector<PeriodRecord>& history() const { return history_; }

 private:
  struct Node;

  // One class of identical leaves: the representative is simulated, the
  // rest replay its results until their grants diverge.
  struct GrantRun {
    Watts grant_w{0.0};
    int64_t periods = 0;
  };
  struct ReplicaClass {
    int rep = -1;                     // Flat node index (lowest in class).
    std::vector<int> members;         // Flat node indices, rep first.
    std::vector<GrantRun> grant_log;  // RLE of the rep's per-period grants.
  };

  void Flatten(const BudgetNodeConfig& cfg, int parent, int level);
  void DeriveBounds();
  Watts EffectiveCeiling(int node, bool use_demand) const;
  void Arbitrate(bool initial);
  void RunFaultLadder();
  void BuildReplicaClasses();
  // Divergence checks + grant-log append for the period about to run.
  void PrepareMemoPeriod();
  void MaterializeLeaf(int node);
  // Builds leaf `node`'s socket under `grant_w`: the one place a leaf's
  // daemon is configured, so a materialized replica matches a live leaf.
  std::unique_ptr<SocketStack> MakeLeafStack(int node, Watts grant_w) const;
  void AdvanceLiveLeaves(ThreadPool* pool);
  void RecordHistory();

  BudgetTreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<int> leaves_;       // Flat indices of leaf nodes, ascending.
  // Flat indices of the leaves that own a stack, ascending; capacity
  // leaves_.size(), so materializing a leaf never allocates here.
  std::vector<int> live_leaves_;
  std::vector<int> fault_nodes_;  // Resolved config_.faults[i].node_path.
  int num_levels_ = 0;
  int64_t period_ = 0;
  std::vector<double> share_bias_;  // Per flat node; all 1.0 until set.
  Seconds last_arbitrate_wall_s_{0.0};
  std::vector<PeriodRecord> history_;

  // Replica memoization state (empty when memoize_replicas is off).
  std::vector<ReplicaClass> classes_;
  std::vector<int> node_class_;  // Per flat node: class index, or -1.
  uint64_t memo_leaf_periods_ = 0;
  uint64_t total_leaf_periods_ = 0;

  // Hoisted arbitration scratch: the control plane runs every period at
  // every node and must not allocate (PAPD_HOT).
  std::vector<ShareRequest> scratch_req_;
  MinFundingScratch scratch_split_;
  std::vector<uint8_t> scratch_stale_here_;
  std::vector<uint8_t> scratch_breaker_here_;
};

// Summary of a measured window of tree execution.
struct BudgetTreeResult {
  // Average root (whole-cluster) power over the window.
  Watts avg_root_w{0.0};
  // Worst cap-invariant slack seen at any arbitration touching the window,
  // including the one closing the final period (see max_grant_overrun_w).
  Watts max_grant_overrun_w{0.0};
  Seconds measured_s{0.0};
  // Mean control-plane cost per period (see last_arbitrate_wall_s).
  Seconds avg_arbiter_wall_s{0.0};
};

// Steps through `warmup_s`, then measures over `measure_s`, stepping on
// `pool` as BudgetTree::Step does, under the same rules for the pool.
BudgetTreeResult RunBudgetTree(const BudgetTreeConfig& config, Seconds warmup_s,
                               Seconds measure_s, ThreadPool* pool = nullptr);

// A flat rack: root "rack" with one leaf "socket{i}" per socket (leaf i is
// flat node i + 1), each leaf taking its socket's `shares` as its share
// weight — one budget split across sockets by the same arbiter every tree
// level runs.
BudgetTreeConfig MakeFlatRack(std::vector<RackSocketConfig> sockets, Watts budget_w);

// A uniform rows x racks x sockets topology ("dc/row{r}/rack{k}/socket{s}")
// with every socket cloned from `socket_proto`.  By default seeds are
// perturbed per leaf so the cloned workloads decorrelate; pass
// decorrelate_seeds = false for a truly homogeneous fleet (every leaf
// bit-identical), the configuration replica memoization collapses to a
// single equivalence class.
BudgetTreeConfig MakeUniformCluster(int rows, int racks_per_row, int sockets_per_rack,
                                    const RackSocketConfig& socket_proto, Watts budget_w,
                                    bool decorrelate_seeds = true);

}  // namespace papd

#endif  // SRC_CLUSTER_BUDGET_TREE_H_
