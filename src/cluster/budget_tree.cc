#include "src/cluster/budget_tree.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>

#include "src/common/check.h"
#include "src/policy/invariants.h"
#include "src/policy/min_funding.h"

namespace papd {

namespace {

// Handler table for ClusterFaultKind — the registry the papd_lint
// registry-completeness rule checks against the enum: every enumerator in
// budget_tree.h must have a row here.
struct ClusterFaultHandler {
  ClusterFaultKind kind;
  const char* name;
};

constexpr ClusterFaultHandler kClusterFaultHandlers[] = {
    {ClusterFaultKind::kTelemetryStale, "telemetry-stale"},
    {ClusterFaultKind::kBreakerTrip, "breaker-trip"},
};

static_assert(std::size(kClusterFaultHandlers) == kNumClusterFaultKinds,
              "every ClusterFaultKind needs a handler row");

// Telemetry-stale ladder: hold the last-good measurement for this many
// periods, then decay it by kStaleDecay per period toward the floor.
constexpr int kStaleHoldPeriods = 3;
constexpr double kStaleDecay = 0.5;

bool FaultActive(const ClusterFault& fault, int64_t period) {
  return period >= fault.start_period && period < fault.start_period + fault.periods;
}

// Bitwise grant comparison for replica divergence checks: memoization must
// resync on *any* representational change, so this is memcmp, not ==, and
// is immune to -0.0 and NaN surprises.
bool SameBits(Watts a, Watts b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

const char* ClusterFaultKindName(ClusterFaultKind kind) {
  for (const ClusterFaultHandler& handler : kClusterFaultHandlers) {
    if (handler.kind == kind) {
      return handler.name;
    }
  }
  return "?";
}

struct BudgetTree::Node {
  std::string path;
  int parent = -1;
  int level = 0;
  std::vector<int> children;
  double shares = 1.0;
  int leaf_count = 0;  // Leaves in this node's subtree (1 for a leaf).

  // Effective bounds (bubbled up at construction; see DeriveBounds).
  Watts floor_w{0.0};
  Watts ceiling_w{0.0};

  std::unique_ptr<SocketStack> stack;  // Leaves only.
  const RackSocketConfig* socket_cfg = nullptr;
  const BudgetNodeConfig* cfg = nullptr;

  Watts grant_w{0.0};
  Watts measured_w{0.0};
  Watts reported_w{0.0};
  Watts last_good_w{0.0};
  int stale_streak = 0;
  bool stale = false;
  bool breaker = false;
};

void BudgetTree::Flatten(const BudgetNodeConfig& cfg, int parent, int level) {
  const int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.path = parent < 0 ? cfg.name : nodes_[static_cast<size_t>(parent)].path + "/" + cfg.name;
  node.parent = parent;
  node.level = level;
  node.shares = cfg.shares;
  node.cfg = &cfg;
  num_levels_ = std::max(num_levels_, level + 1);
  if (parent >= 0) {
    nodes_[static_cast<size_t>(parent)].children.push_back(index);
  }
  if (cfg.children.empty()) {
    PAPD_CHECK(cfg.socket != nullptr) << " leaf node " << node.path << " has no socket config";
    node.socket_cfg = cfg.socket.get();
    leaves_.push_back(index);
  } else {
    for (const BudgetNodeConfig& child : cfg.children) {
      // Recursion may reallocate nodes_; `node` is not used past here.
      Flatten(child, index, level + 1);
    }
  }
}

void BudgetTree::DeriveBounds() {
  // Pre-order flattening puts every child after its parent, so one reverse
  // pass sees all children before the node they roll up into.
  for (size_t k = nodes_.size(); k-- > 0;) {
    Node& node = nodes_[k];
    Watts floor{0.0};
    Watts ceiling{0.0};
    if (node.children.empty()) {
      ValidateSocketBudgetBounds(*node.socket_cfg);
      floor = SocketFloorW(*node.socket_cfg);
      ceiling = SocketCeilingW(*node.socket_cfg);
      node.leaf_count = 1;
    } else {
      for (int c : node.children) {
        floor += nodes_[static_cast<size_t>(c)].floor_w;
        ceiling += nodes_[static_cast<size_t>(c)].ceiling_w;
        node.leaf_count += nodes_[static_cast<size_t>(c)].leaf_count;
      }
    }
    // Configured bounds tighten the derived ones: floors only rise (so a
    // node's grant always covers its children's minimums — the structural
    // basis of the cap invariant), ceilings only drop.
    node.floor_w = std::max(node.cfg->min_budget_w, floor);
    node.ceiling_w =
        node.cfg->max_budget_w > Watts{0.0} ? std::min(node.cfg->max_budget_w, ceiling) : ceiling;
    PAPD_CHECK_LE(node.floor_w, node.ceiling_w)
        << " budget bounds inverted at tree node " << node.path
        << "; raise max_budget_w or lower min_budget_w";
  }
}

BudgetTree::BudgetTree(BudgetTreeConfig config) : config_(std::move(config)) {
  Flatten(config_.root, /*parent=*/-1, /*level=*/0);
  PAPD_CHECK(!leaves_.empty());
  PAPD_CHECK_LT(nodes_.size(), size_t{1} << 15);  // Trace shard ids are int16_t.
  // Static and held leaves register no daemon periodic, so nothing else
  // would reject a period that never advances time.
  PAPD_CHECK_GT(config_.control_period_s, Seconds{0.0});
  DeriveBounds();
  share_bias_.assign(nodes_.size(), 1.0);

  for (const ClusterFault& fault : config_.faults) {
    const int node = FindNode(fault.node_path);
    PAPD_CHECK_GE(node, 0) << " cluster fault targets unknown node " << fault.node_path;
    PAPD_CHECK_GE(fault.start_period, 0);
    PAPD_CHECK_GE(fault.periods, 1);
    fault_nodes_.push_back(node);
  }

  // Initial top-down split — pure shares between floors and ceilings, no
  // measurements yet — so every leaf daemon starts under its real grant.
  Arbitrate(/*initial=*/true);
  BuildReplicaClasses();
  live_leaves_.reserve(leaves_.size());
  for (int leaf : leaves_) {
    Node& node = nodes_[static_cast<size_t>(leaf)];
    const int cls = node_class_[static_cast<size_t>(leaf)];
    if (cls >= 0 && classes_[static_cast<size_t>(cls)].rep != leaf) {
      continue;  // Memoized replica: no stack until its grant diverges.
    }
    node.stack = MakeLeafStack(leaf, node.grant_w);
    live_leaves_.push_back(leaf);
  }
  // now() and measurement fan-out rely on the first leaf being live; the
  // first leaf in pre-order is the representative of its own class.
  PAPD_CHECK(nodes_[static_cast<size_t>(leaves_.front())].stack != nullptr);

  // Pre-size the hoisted arbitration scratch so even the first Step's
  // control plane never touches the heap.
  size_t max_children = 0;
  for (const Node& node : nodes_) {
    max_children = std::max(max_children, node.children.size());
  }
  scratch_req_.reserve(max_children);
  scratch_split_.alloc.reserve(max_children);
  scratch_split_.pinned.reserve(max_children);
  scratch_stale_here_.reserve(nodes_.size());
  scratch_breaker_here_.reserve(nodes_.size());
}

void BudgetTree::BuildReplicaClasses() {
  node_class_.assign(nodes_.size(), -1);
  if (!config_.tick.memoize_replicas) {
    return;
  }
  // A leaf joins a class when its socket config equals the representative's
  // and its initial grant matches bitwise.  Such leaves run bit-identical
  // simulations for as long as their grants stay bitwise equal, so one
  // representative (the lowest pre-order member) can stand in for the whole
  // class each period.  Classes are bucketed by seed and grant bits, so a
  // leaf is compared only with the representatives that could match;
  // equality alone decides membership.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<int>> buckets;
  for (int leaf : leaves_) {
    const Node& node = nodes_[static_cast<size_t>(leaf)];
    const RackSocketConfig& socket = *node.socket_cfg;
    std::vector<int>& bucket =
        buckets[{socket.seed, std::bit_cast<uint64_t>(AsResourceUnits(node.grant_w))}];
    int cls = -1;
    for (int c : bucket) {
      const int rep = classes_[static_cast<size_t>(c)].rep;
      if (*nodes_[static_cast<size_t>(rep)].socket_cfg == socket) {
        cls = c;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(classes_.size());
      bucket.push_back(cls);
      classes_.emplace_back();
      classes_.back().rep = leaf;
      classes_.back().grant_log.reserve(4);
    }
    classes_[static_cast<size_t>(cls)].members.push_back(leaf);
    node_class_[static_cast<size_t>(leaf)] = cls;
  }
}

BudgetTree::~BudgetTree() = default;

std::unique_ptr<SocketStack> BudgetTree::MakeLeafStack(int node, Watts grant_w) const {
  const RackSocketConfig& socket = *nodes_[static_cast<size_t>(node)].socket_cfg;
  DaemonConfig dcfg;
  dcfg.kind = socket.policy;
  dcfg.power_limit_w = grant_w;
  dcfg.period_s = config_.control_period_s;
  dcfg.audit = socket.audit;
  // Shard = flat node index, so a shared recorder splits the tree back into
  // one track per node (leaf daemons and arbiter grants alike).
  dcfg.obs = DaemonObs{.sink = config_.obs, .shard = static_cast<int16_t>(node)};
  return std::make_unique<SocketStack>(socket, dcfg, FaultPlan{}, config_.tick_s, config_.tick);
}

int BudgetTree::num_nodes() const { return static_cast<int>(nodes_.size()); }

const std::string& BudgetTree::node_path(int node) const {
  return nodes_[static_cast<size_t>(node)].path;
}
int BudgetTree::parent(int node) const { return nodes_[static_cast<size_t>(node)].parent; }
int BudgetTree::level(int node) const { return nodes_[static_cast<size_t>(node)].level; }
const std::vector<int>& BudgetTree::children(int node) const {
  return nodes_[static_cast<size_t>(node)].children;
}
bool BudgetTree::is_leaf(int node) const {
  return nodes_[static_cast<size_t>(node)].children.empty();
}
int BudgetTree::leaf_count(int node) const {
  return nodes_[static_cast<size_t>(node)].leaf_count;
}

int BudgetTree::FindNode(const std::string& path) const {
  for (size_t i = 0; i < nodes_.size(); i++) {
    if (nodes_[i].path == path) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Watts BudgetTree::grant_w(int node) const { return nodes_[static_cast<size_t>(node)].grant_w; }
Watts BudgetTree::measured_w(int node) const {
  return nodes_[static_cast<size_t>(node)].measured_w;
}
Watts BudgetTree::reported_w(int node) const {
  return nodes_[static_cast<size_t>(node)].reported_w;
}
Watts BudgetTree::floor_w(int node) const { return nodes_[static_cast<size_t>(node)].floor_w; }
Watts BudgetTree::ceiling_w(int node) const {
  return nodes_[static_cast<size_t>(node)].ceiling_w;
}
int BudgetTree::stale_streak(int node) const {
  return nodes_[static_cast<size_t>(node)].stale_streak;
}
bool BudgetTree::breaker_tripped(int node) const {
  return nodes_[static_cast<size_t>(node)].breaker;
}

Watts BudgetTree::grant_sum_w(int node) const {
  Watts sum{0.0};
  for (int c : nodes_[static_cast<size_t>(node)].children) {
    sum += nodes_[static_cast<size_t>(c)].grant_w;
  }
  return sum;
}

Watts BudgetTree::max_grant_overrun_w() const {
  Watts worst{0.0};
  for (size_t i = 0; i < nodes_.size(); i++) {
    if (nodes_[i].children.empty()) {
      continue;
    }
    const Watts slack{grant_sum_w(static_cast<int>(i)) - nodes_[i].grant_w};
    worst = std::max(worst, slack);
  }
  return worst;
}

Package& BudgetTree::package(int node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  PAPD_CHECK(n.children.empty()) << " node " << n.path << " is not a leaf";
  MaterializeLeaf(node);  // No-op when already live.
  return n.stack->pkg;
}

SocketStack& BudgetTree::stack(int node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  PAPD_CHECK(n.children.empty()) << " node " << n.path << " is not a leaf";
  MaterializeLeaf(node);  // No-op when already live.
  return *n.stack;
}

void BudgetTree::SetShareBias(const std::vector<double>& bias) {
  PAPD_CHECK_EQ(bias.size(), nodes_.size());
  for (const double b : bias) {
    PAPD_CHECK_GT(b, 0.0);
  }
  share_bias_ = bias;
}

const PowerDaemon& BudgetTree::daemon(int node) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  PAPD_CHECK(n.children.empty()) << " node " << n.path << " is not a leaf";
  // Materializing is a cache fill — replaying the representative's history
  // yields the exact state a live stack would hold — not an observable
  // state change, so the const_cast is sound.
  const_cast<BudgetTree*>(this)->MaterializeLeaf(node);
  return *n.stack->daemon;
}

Seconds BudgetTree::now() const {
  // The first leaf is always live (checked at construction).
  return nodes_[static_cast<size_t>(leaves_.front())].stack->pkg.now();
}

double BudgetTree::replica_hit_rate() const {
  if (total_leaf_periods_ == 0) {
    return 0.0;
  }
  return static_cast<double>(memo_leaf_periods_) / static_cast<double>(total_leaf_periods_);
}

void BudgetTree::MaterializeLeaf(int node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  if (n.stack != nullptr) {
    return;
  }
  const int cls_index = node_class_[static_cast<size_t>(node)];
  PAPD_CHECK_GE(cls_index, 0) << " stackless leaf " << n.path << " has no replica class";
  const ReplicaClass& cls = classes_[static_cast<size_t>(cls_index)];
  // Reconstruct the replica by replaying the representative's grant
  // history.  Every completed period of this member ran under a grant that
  // matched the representative's bitwise (else it would have materialized
  // earlier), so a fresh stack constructed under the first logged grant and
  // stepped through the log is bit-identical to one that had been live from
  // construction.
  const Watts initial = cls.grant_log.empty() ? n.grant_w : cls.grant_log.front().grant_w;
  n.stack = MakeLeafStack(node, initial);
  int64_t replayed = 0;
  for (const GrantRun& run : cls.grant_log) {
    for (int64_t p = 0; p < run.periods; p++, replayed++) {
      if (replayed > 0) {
        // Arbitrate() calls SetPowerLimit on every live leaf after every
        // period (even when unchanged); mirror that exactly so RAPL
        // reprogramming and its control-epoch bumps line up.
        n.stack->daemon->SetPowerLimit(run.grant_w);
      }
      n.stack->AdvancePeriod(config_.control_period_s);
    }
  }
  if (replayed > 0) {
    // The grant the last arbitration put in force for the upcoming period.
    n.stack->daemon->SetPowerLimit(n.grant_w);
  }
  // Sorted insert keeps the fan-out in pre-order, within the capacity
  // reserved at construction.
  live_leaves_.insert(std::lower_bound(live_leaves_.begin(), live_leaves_.end(), node), node);
}

// PAPD_HOT — per period; the log append is amortized O(1) with no heap
// touch while grants hold (the run-length tail just extends).
void BudgetTree::PrepareMemoPeriod() {
  for (ReplicaClass& cls : classes_) {
    const Node& rep = nodes_[static_cast<size_t>(cls.rep)];
    // A member whose grant no longer matches the representative's bitwise
    // stops being a replica: replay the shared history into a live stack
    // before this period advances.
    for (size_t m = 1; m < cls.members.size(); m++) {
      Node& member = nodes_[static_cast<size_t>(cls.members[m])];
      if (member.stack == nullptr && !SameBits(member.grant_w, rep.grant_w)) {
        MaterializeLeaf(cls.members[m]);
      }
    }
    // Record the grant in force for the period about to run.
    if (!cls.grant_log.empty() && SameBits(cls.grant_log.back().grant_w, rep.grant_w)) {
      cls.grant_log.back().periods++;
    } else {
      cls.grant_log.push_back(GrantRun{rep.grant_w, 1});  // PAPD_HOT_ALLOW grant change (resync)
    }
  }
}

// PAPD_HOT — one ParallelFor per period, one index per live leaf, so idle
// workers take whatever leaves remain.  The body captures only `this`,
// which std::function stores inline, so the fan-out allocates nothing.
void BudgetTree::AdvanceLiveLeaves(ThreadPool* pool) {
  ParallelFor(pool, live_leaves_.size(), [this](size_t k) {
    nodes_[static_cast<size_t>(live_leaves_[k])].stack->AdvancePeriod(config_.control_period_s);
  });
}

Watts BudgetTree::EffectiveCeiling(int node, bool use_demand) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.breaker) {
    // Breaker tripped: everything above the guaranteed minimums is revoked.
    // Feasible by construction — the floor covers the subtree's floors.
    return n.floor_w;
  }
  Watts ceiling = n.ceiling_w;
  if (use_demand && config_.arbiter == RackArbiterKind::kDemand) {
    // Claim only slightly more than the (ladder-filtered) subtree draw, so
    // idle subtrees release headroom; the +2 W/socket matches what a flat
    // per-rack demand arbiter would claim for the same sockets.
    const Watts demand{n.reported_w * 1.10 + Watts{2.0} * static_cast<double>(n.leaf_count)};
    ceiling = std::clamp(demand, n.floor_w, ceiling);
  }
  return ceiling;
}

// PAPD_HOT — runs at every node of every period; the request and split
// buffers are hoisted members so steady-state arbitration is heap-free.
void BudgetTree::Arbitrate(bool initial) {
  // Root: clamp the cluster budget into the root's effective range.  (A
  // budget below the root floor grants the floor — minimums are honored
  // over the cap, exactly like DistributeProportional's min_sum clamp.)
  const bool use_demand = !initial;
  Node& root = nodes_.front();
  root.grant_w = std::clamp(config_.budget_w, root.floor_w, EffectiveCeiling(0, use_demand));

  // SLO feedback biases proportions only; bounds stay configured, which is
  // why any bias vector preserves the cap invariant below.
  const bool biased = config_.arbiter == RackArbiterKind::kSloFeedback;

  // Pre-order: every parent's grant is final before its children split it.
  for (size_t i = 0; i < nodes_.size(); i++) {
    Node& node = nodes_[i];
    if (!node.children.empty()) {
      scratch_req_.assign(node.children.size(), ShareRequest{});
      for (size_t k = 0; k < node.children.size(); k++) {
        const size_t c = static_cast<size_t>(node.children[k]);
        const Node& child = nodes_[c];
        scratch_req_[k] = ShareRequest{
            .shares = biased ? child.shares * share_bias_[c] : child.shares,
            .minimum = AsResourceUnits(child.floor_w),
            .maximum = AsResourceUnits(EffectiveCeiling(node.children[k], use_demand))};
      }
      const std::vector<ResourceUnits>& split =
          DistributeProportional(AsResourceUnits(node.grant_w), scratch_req_, &scratch_split_);
      for (size_t k = 0; k < node.children.size(); k++) {
        nodes_[static_cast<size_t>(node.children[k])].grant_w = Watts{split[k]};
      }
      if (biased) {
        // Under kSloFeedback, PolicyAuditor's split post-conditions
        // (termination + bounds) on every biased split, aborting on a
        // violation: the structural proof that biasing shares cannot break
        // the cap invariant.  Allocation only on the abort path.
        const auto violations =  // PAPD_HOT_ALLOW: audit-only, empty when clean.
            AuditProportionalSplit(AsResourceUnits(node.grant_w), scratch_req_, split);
        PAPD_CHECK(violations.empty())
            << " biased split violates min-funding invariants at " << node.path << ": "
            << violations.front();
      }
      // The cap invariant, enforced at every level of every arbitration:
      // the split can undershoot the grant (ceilings bind) but never
      // overshoot it (the grant covers the floors, so min_sum can't bind).
      PAPD_CHECK_LE(grant_sum_w(static_cast<int>(i)), node.grant_w + Watts{1e-6})
          << " child grants exceed parent grant at " << node.path;
    }
    if (!initial) {
      if (node.stack != nullptr) {
        node.stack->daemon->SetPowerLimit(node.grant_w);
      }
      if (config_.obs != nullptr) {
        obs::TraceEvent event;
        event.t = now();
        event.type = obs::TraceEventType::kClusterGrant;
        event.shard = static_cast<int16_t>(i);
        event.index = static_cast<int32_t>(i);
        event.code = node.level;
        event.a = obs::ToPayload(node.grant_w);
        event.b = obs::ToPayload(node.reported_w);
        config_.obs->OnEvent(event);
      }
    }
  }
}

// PAPD_HOT — per period; the fault masks live in hoisted member scratch
// (assign() keeps capacity, pre-reserved at construction).
void BudgetTree::RunFaultLadder() {
  // Which nodes are directly faulted this period?
  scratch_stale_here_.assign(nodes_.size(), 0);
  scratch_breaker_here_.assign(nodes_.size(), 0);
  for (size_t f = 0; f < config_.faults.size(); f++) {
    if (!FaultActive(config_.faults[f], period_)) {
      continue;
    }
    const size_t node = static_cast<size_t>(fault_nodes_[f]);
    switch (config_.faults[f].kind) {
      case ClusterFaultKind::kTelemetryStale:
        scratch_stale_here_[node] = 1;
        break;
      case ClusterFaultKind::kBreakerTrip:
        scratch_breaker_here_[node] = 1;
        break;
    }
  }

  // Forward pass (parents first): staleness covers the whole subtree — a
  // dead rack aggregator blinds the arbiter to every socket beneath it.
  for (size_t i = 0; i < nodes_.size(); i++) {
    Node& node = nodes_[i];
    node.breaker = scratch_breaker_here_[i] != 0;
    node.stale = scratch_stale_here_[i] != 0 ||
                 (node.parent >= 0 && nodes_[static_cast<size_t>(node.parent)].stale);
    if (!node.stale) {
      node.stale_streak = 0;
      node.last_good_w = node.measured_w;
      node.reported_w = node.measured_w;
      continue;
    }
    // The daemon's ladder, mirrored: kHold (trust the last-good value for a
    // bounded number of periods), then kFallback (decay geometrically
    // toward the floor, so a frozen sensor cannot hold a high claim).
    node.stale_streak++;
    if (node.stale_streak <= kStaleHoldPeriods) {
      node.reported_w = node.last_good_w;
    } else {
      const double decay = std::pow(kStaleDecay, node.stale_streak - kStaleHoldPeriods);
      node.reported_w = std::max(node.floor_w, node.last_good_w * decay);
    }
  }
}

void BudgetTree::RecordHistory() {
  PeriodRecord record;
  record.end_s = now();
  record.grants_w.reserve(nodes_.size());
  record.measured_w.reserve(nodes_.size());
  record.reported_w.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    record.grants_w.push_back(node.grant_w);
    record.measured_w.push_back(node.measured_w);
    record.reported_w.push_back(node.reported_w);
  }
  history_.push_back(std::move(record));
}

// PAPD_HOT — the 128k-core steady-state step must not touch the heap:
// replicas are served by fan-out, live leaves fan out through one
// allocation-free ParallelFor, and the control plane below uses hoisted
// scratch throughout.
void BudgetTree::Step(ThreadPool* pool) {
  if (!classes_.empty()) {
    PrepareMemoPeriod();
  }
  AdvanceLiveLeaves(pool);
  total_leaf_periods_ += leaves_.size();

  // Everything below is the tree's control plane; time it separately from
  // the (dominant) leaf simulation cost.
  const auto wall_start = std::chrono::steady_clock::now();

  // Measured power aggregates bottom-up (children flattened after parents,
  // so the reverse pass sees leaves first).  A memoized replica reports its
  // representative's measurement — that stack already advanced this period,
  // so last_measured_w is current regardless of traversal order.
  for (size_t k = nodes_.size(); k-- > 0;) {
    Node& node = nodes_[k];
    if (node.children.empty()) {
      if (node.stack != nullptr) {
        node.measured_w = node.stack->last_measured_w;
      } else {
        const ReplicaClass& cls = classes_[static_cast<size_t>(node_class_[k])];
        node.measured_w = nodes_[static_cast<size_t>(cls.rep)].stack->last_measured_w;
        memo_leaf_periods_++;
      }
    } else {
      node.measured_w = Watts{0.0};
      for (int c : node.children) {
        node.measured_w += nodes_[static_cast<size_t>(c)].measured_w;
      }
    }
  }

  RunFaultLadder();

  if (config_.record_history) {
    RecordHistory();
  }

  Arbitrate(/*initial=*/false);
  last_arbitrate_wall_s_ = Seconds{
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count()};
  period_++;
}

BudgetTreeResult RunBudgetTree(const BudgetTreeConfig& config, Seconds warmup_s,
                               Seconds measure_s, ThreadPool* pool) {
  BudgetTree tree(config);
  const auto periods = [&](Seconds span) {
    return static_cast<int>(span / config.control_period_s + 0.5);
  };
  for (int p = 0; p < periods(warmup_s); p++) {
    tree.Step(pool);
  }

  BudgetTreeResult result;
  const int measure_periods = std::max(1, periods(measure_s));
  const Seconds start_s{tree.now()};
  // Grants in force when the window opens, and after every arbitration
  // inside it — including the one closing the final period.
  result.max_grant_overrun_w = tree.max_grant_overrun_w();
  for (int p = 0; p < measure_periods; p++) {
    tree.Step(pool);
    result.max_grant_overrun_w = std::max(result.max_grant_overrun_w, tree.max_grant_overrun_w());
    result.avg_root_w += tree.measured_w(0);
    result.avg_arbiter_wall_s += tree.last_arbitrate_wall_s();
  }
  result.avg_root_w /= measure_periods;
  result.avg_arbiter_wall_s /= measure_periods;
  result.measured_s = tree.now() - start_s;
  return result;
}

BudgetTreeConfig MakeFlatRack(std::vector<RackSocketConfig> sockets, Watts budget_w) {
  PAPD_CHECK(!sockets.empty());
  BudgetTreeConfig config;
  config.budget_w = budget_w;
  config.root.name = "rack";
  for (size_t s = 0; s < sockets.size(); s++) {
    BudgetNodeConfig leaf;
    leaf.name = "socket" + std::to_string(s);
    leaf.shares = sockets[s].shares;
    leaf.socket = std::make_shared<const RackSocketConfig>(std::move(sockets[s]));
    config.root.children.push_back(std::move(leaf));
  }
  return config;
}

BudgetTreeConfig MakeUniformCluster(int rows, int racks_per_row, int sockets_per_rack,
                                    const RackSocketConfig& socket_proto, Watts budget_w,
                                    bool decorrelate_seeds) {
  PAPD_CHECK_GE(rows, 1);
  PAPD_CHECK_GE(racks_per_row, 1);
  PAPD_CHECK_GE(sockets_per_rack, 1);
  BudgetTreeConfig config;
  config.budget_w = budget_w;
  config.root.name = "dc";
  // A homogeneous cluster's leaves all hold this one copy.
  const std::shared_ptr<const RackSocketConfig> shared =
      decorrelate_seeds ? nullptr : std::make_shared<const RackSocketConfig>(socket_proto);
  int leaf = 0;
  for (int r = 0; r < rows; r++) {
    BudgetNodeConfig row;
    row.name = "row" + std::to_string(r);
    for (int k = 0; k < racks_per_row; k++) {
      BudgetNodeConfig rack;
      rack.name = "rack" + std::to_string(k);
      for (int s = 0; s < sockets_per_rack; s++) {
        BudgetNodeConfig socket;
        socket.name = "socket" + std::to_string(s);
        if (decorrelate_seeds) {
          // Decorrelate the cloned workloads: same mix, different phase.
          RackSocketConfig own = socket_proto;
          own.seed = socket_proto.seed + 7919ULL * static_cast<uint64_t>(leaf);
          socket.socket = std::make_shared<const RackSocketConfig>(std::move(own));
        } else {
          socket.socket = shared;
        }
        leaf++;
        rack.children.push_back(std::move(socket));
      }
      row.children.push_back(std::move(rack));
    }
    config.root.children.push_back(std::move(row));
  }
  return config;
}

}  // namespace papd
