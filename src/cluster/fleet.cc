#include "src/cluster/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/obs/trace.h"

namespace papd {

namespace {

// The "priority" fleet policy multiplies hot sockets' arbiter shares by
// this.
constexpr double kPriorityBoost = 2.0;
// A hot shard's users per socket, relative to a cold shard's.  With the
// default population this puts hot shards at ~153 rps against ~81 for cold
// ones (see FleetConfig::users).
constexpr double kHotMultiplier = 1.875;
// A derived cluster budget (FleetConfig::budget_w == 0) grants every socket
// its floor plus this fraction of its floor-to-ceiling range: ~42 W per
// socket at the equal static split, enough for cold shards and ~17 W short
// of what a hot shard needs.
constexpr double kCapFraction = 0.34;
// A socket-period only counts toward SLO accounting when its window
// completed at least this many requests (a starved window with two samples
// is noise, not a measurement).
constexpr size_t kMinWindowSamples = 5;

// Latency histogram buckets (seconds): log-spaced around typical websearch
// response times (a few ms fixed latency up to deep-queue seconds under
// throttling).
std::vector<double> LatencyBucketsS() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
}

}  // namespace

int FleetSockets(const FleetConfig& cfg) {
  return cfg.rows * cfg.racks_per_row * cfg.sockets_per_rack;
}

Fleet::Fleet(FleetConfig cfg) : cfg_(std::move(cfg)), arbiter_(FleetConfig::slo) {
  PAPD_CHECK_GT(cfg_.rows, 0);
  PAPD_CHECK_GT(cfg_.racks_per_row, 0);
  PAPD_CHECK_GT(cfg_.sockets_per_rack, 0);
  PAPD_CHECK_GT(cfg_.users, 0.0);
  PAPD_CHECK_GE(cfg_.hot_fraction, 0.0);
  PAPD_CHECK_LE(cfg_.hot_fraction, 1.0);
  const int sockets = FleetSockets(cfg_);

  // --- Load balancer: sticky population shards, hot shards first ----------
  int hot_count = static_cast<int>(
      std::lround(cfg_.hot_fraction * static_cast<double>(sockets)));
  hot_count = std::clamp(hot_count, 0, sockets);
  hot_.assign(static_cast<size_t>(sockets), false);
  double weight_sum = 0.0;
  for (int s = 0; s < sockets; ++s) {
    hot_[static_cast<size_t>(s)] = s < hot_count;
    weight_sum += s < hot_count ? kHotMultiplier : 1.0;
  }

  // --- Topology ------------------------------------------------------------
  // One RackSocketConfig per socket; only the user shard, seed, and (under
  // the priority policy) the share weight differ between sockets.
  RackSocketConfig proto{.platform = SkylakeXeon4114()};
  proto.policy = PolicyKind::kFrequencyShares;
  proto.seed = cfg_.seed;
  proto.audit = false;  // The per-socket daemon auditor is slow at 256+ sockets.
  proto.websearch = true;
  proto.websearch_params.open_loop.enabled = true;
  proto.websearch_params.open_loop.shape = cfg_.shape;
  proto.websearch_params.open_loop.diurnal_amplitude = cfg_.diurnal_amplitude;
  proto.websearch_params.open_loop.diurnal_period_s = cfg_.diurnal_period_s;
  proto.websearch_params.open_loop.record_arrivals = cfg_.record_arrivals;

  BudgetNodeConfig root;
  root.name = "dc";
  int socket_index = 0;
  for (int r = 0; r < cfg_.rows; ++r) {
    BudgetNodeConfig row;
    row.name = "row" + std::to_string(r);
    // Interior shares = sum of descendant shares, so the priority policy's
    // boosted leaves pull weight at every level, not just inside their rack.
    row.shares = 0.0;
    for (int k = 0; k < cfg_.racks_per_row; ++k) {
      BudgetNodeConfig rack;
      rack.name = "rack" + std::to_string(k);
      rack.shares = 0.0;
      for (int j = 0; j < cfg_.sockets_per_rack; ++j, ++socket_index) {
        const bool hot = hot_[static_cast<size_t>(socket_index)];
        BudgetNodeConfig leaf;
        leaf.name = "socket" + std::to_string(j);
        RackSocketConfig sc = proto;
        // Decorrelate arrival/service streams per socket (same prime
        // stride MakeUniformCluster uses).
        sc.seed = cfg_.seed + 7919u * static_cast<uint64_t>(socket_index);
        // Offset each socket's diurnal phase so a fleet-wide shape does
        // not make all shards peak on the same control period edge.
        sc.websearch_params.open_loop.shape_phase_s =
            Seconds{static_cast<double>(socket_index % 97)};
        const double weight = hot ? kHotMultiplier : 1.0;
        sc.websearch_params.open_loop.users = cfg_.users * weight / weight_sum;
        sc.shares = cfg_.priority_hot && hot ? kPriorityBoost : 1.0;
        leaf.shares = sc.shares;
        leaf.socket = std::make_shared<const RackSocketConfig>(std::move(sc));
        rack.shares += leaf.shares;
        rack.children.push_back(std::move(leaf));
      }
      row.shares += rack.shares;
      row.children.push_back(std::move(rack));
    }
    root.children.push_back(std::move(row));
  }

  // --- Budget --------------------------------------------------------------
  Watts budget = cfg_.budget_w;
  if (budget <= Watts{0.0}) {
    const Watts floor = SocketFloorW(proto);
    const Watts ceiling = SocketCeilingW(proto);
    budget = (floor + (ceiling - floor) * kCapFraction) * static_cast<double>(sockets);
  }

  BudgetTreeConfig tree_cfg;
  tree_cfg.root = std::move(root);
  tree_cfg.budget_w = budget;
  tree_cfg.control_period_s = FleetConfig::control_period_s;
  tree_cfg.arbiter = cfg_.arbiter;
  tree_cfg.tick_s = FleetConfig::tick_s;
  tree_cfg.obs = cfg_.obs;
  tree_cfg.tick = FleetConfig::tick;
  // Fleets run many periods over many nodes; the per-period snapshot is the
  // 100k-core lesson (see BudgetTreeConfig::record_history).
  tree_cfg.record_history = false;
  tree_ = std::make_unique<BudgetTree>(std::move(tree_cfg));

  const int nodes = tree_->num_nodes();
  PAPD_CHECK_EQ(tree_->num_leaves(), sockets);

  arbiter_.Resize(static_cast<size_t>(nodes));
  latency_offset_.assign(static_cast<size_t>(sockets), 0);
  violations_.assign(static_cast<size_t>(sockets), 0);
  measured_periods_.assign(static_cast<size_t>(sockets), 0);
  window_p90_.assign(static_cast<size_t>(sockets), Seconds{0.0});
  window_violated_.assign(static_cast<size_t>(sockets), 0);

  violating_leaves_.assign(static_cast<size_t>(nodes), 0);
  violation_fraction_.assign(static_cast<size_t>(nodes), 0.0);
  subtree_p90_.assign(static_cast<size_t>(nodes), Seconds{0.0});
  bias_scratch_.assign(static_cast<size_t>(nodes), 1.0);

  // Per-shard latency histograms, one per socket, keyed by tree path.
  latency_hist_.reserve(static_cast<size_t>(sockets));
  for (int s = 0; s < sockets; ++s) {
    latency_hist_.push_back(metrics_.GetHistogram(
        "fleet." + tree_->node_path(leaf_nodes()[static_cast<size_t>(s)]) +
            ".latency_s",
        LatencyBucketsS()));
  }
}

Fleet::~Fleet() = default;

void Fleet::Step(ThreadPool* pool) {
  tree_->Step(pool);

  // Root power accounting for the period that just closed.
  const Watts root_w = tree_->measured_w(0);
  root_power_sum_w_ += root_w;
  root_power_max_w_ = std::max(root_power_max_w_, root_w);
  max_overrun_w_ = std::max(max_overrun_w_, tree_->max_grant_overrun_w());
  ++window_periods_;

  UpdateWindowStats();
  if (cfg_.arbiter == RackArbiterKind::kSloFeedback) {
    ApplySloFeedback();
  }
}

void Fleet::UpdateWindowStats() {
  for (int s = 0; s < num_sockets(); ++s) {
    const size_t si = static_cast<size_t>(s);
    WebSearch& ws = *tree_->stack(leaf_nodes()[si]).websearch;
    const std::span<const Seconds> lat(ws.latencies());
    const std::span<const Seconds> window =
        lat.subspan(std::min(latency_offset_[si], lat.size()));
    latency_offset_[si] = lat.size();

    for (Seconds l : window) {
      latency_hist_[si]->Observe(l);
    }

    window_violated_[si] = 0;
    window_p90_[si] = Seconds{0.0};
    if (window.size() >= kMinWindowSamples) {
      ++measured_periods_[si];
      window_latency_.Clear();
      window_latency_.Add(window);
      window_p90_[si] = window_latency_.Percentile(90.0);
      if (window_p90_[si] > FleetConfig::slo.slo_p90) {
        window_violated_[si] = 1;
        ++violations_[si];
      }
    }
  }
}

void Fleet::ApplySloFeedback() {
  // Bubble violating-leaf counts and worst window p90 up the (pre-order)
  // tree, then let the arbiter move biases.
  const int nodes = tree_->num_nodes();
  std::fill(violating_leaves_.begin(), violating_leaves_.end(), 0);
  std::fill(subtree_p90_.begin(), subtree_p90_.end(), Seconds{0.0});
  for (int s = 0; s < num_sockets(); ++s) {
    const size_t si = static_cast<size_t>(s);
    const size_t node = static_cast<size_t>(leaf_nodes()[si]);
    violating_leaves_[node] = window_violated_[si];
    subtree_p90_[node] = window_p90_[si];
  }
  for (int n = nodes - 1; n > 0; --n) {
    const size_t parent = static_cast<size_t>(tree_->parent(n));
    violating_leaves_[parent] += violating_leaves_[static_cast<size_t>(n)];
    subtree_p90_[parent] =
        std::max(subtree_p90_[parent], subtree_p90_[static_cast<size_t>(n)]);
  }
  for (int n = 0; n < nodes; ++n) {
    const size_t ni = static_cast<size_t>(n);
    violation_fraction_[ni] = static_cast<double>(violating_leaves_[ni]) /
                              static_cast<double>(tree_->leaf_count(n));
  }

  bias_scratch_ = arbiter_.biases();
  const int moved = arbiter_.Update(violation_fraction_);
  tree_->SetShareBias(arbiter_.biases());
  if (moved > 0 && cfg_.obs != nullptr) {
    for (int n = 0; n < nodes; ++n) {
      const size_t ni = static_cast<size_t>(n);
      if (arbiter_.bias(ni) == bias_scratch_[ni]) {
        continue;
      }
      obs::TraceEvent e;
      e.t = tree_->now();
      e.type = obs::TraceEventType::kSloShift;
      e.shard = static_cast<int16_t>(n);
      e.index = n;
      e.code = tree_->level(n);
      e.a = obs::ToPayload(arbiter_.bias(ni));
      e.b = obs::ToPayload(subtree_p90_[ni]);
      cfg_.obs->OnEvent(e);
    }
  }
}

void Fleet::ResetStats() {
  for (int s = 0; s < num_sockets(); ++s) {
    const size_t si = static_cast<size_t>(s);
    tree_->stack(leaf_nodes()[si]).websearch->ResetStats();
    latency_offset_[si] = 0;
    violations_[si] = 0;
    measured_periods_[si] = 0;
    window_p90_[si] = Seconds{0.0};
    window_violated_[si] = 0;
    *latency_hist_[si] = obs::Histogram(LatencyBucketsS());
  }
  window_periods_ = 0;
  root_power_sum_w_ = Watts{0.0};
  root_power_max_w_ = Watts{0.0};
  max_overrun_w_ = Watts{0.0};
}

FleetResult Fleet::Collect() {
  FleetResult result;
  result.periods = window_periods_;
  result.simulated_users = cfg_.users;
  result.requests_per_day = cfg_.users * FleetConfig::requests_per_user_per_day;
  result.max_grant_overrun_w = max_overrun_w_;

  result.summary.measured_s =
      FleetConfig::control_period_s * static_cast<double>(window_periods_);
  if (window_periods_ > 0) {
    result.summary.avg_pkg_w =
        root_power_sum_w_ / static_cast<double>(window_periods_);
  }
  result.summary.max_pkg_w = root_power_max_w_;
  result.summary.energy_j = result.summary.avg_pkg_w * result.summary.measured_s;

  // Percentiles select in place over the sockets' latency logs, which are
  // never copied whole or concatenated.
  OrderStatistics<Seconds> socket_latency;
  OrderStatistics<Seconds> fleet_latency;
  result.sockets.reserve(static_cast<size_t>(num_sockets()));
  for (int s = 0; s < num_sockets(); ++s) {
    const size_t si = static_cast<size_t>(s);
    const int node = leaf_nodes()[si];
    SocketStack& stack = tree_->stack(node);
    WebSearch& ws = *stack.websearch;

    FleetSocketResult sr;
    sr.node = node;
    sr.path = tree_->node_path(node);
    sr.hot = hot_[si];
    sr.grant_w = tree_->grant_w(node);
    socket_latency.Clear();
    socket_latency.Add(ws.latencies());
    sr.p50 = socket_latency.Percentile(50.0);
    sr.p90 = socket_latency.Percentile(90.0);
    sr.p99 = socket_latency.Percentile(99.0);
    sr.completed = ws.completed_requests();
    sr.arrivals = ws.arrivals();
    sr.slo_violation_periods = violations_[si];
    sr.measured_periods = measured_periods_[si];
    sr.mean_queue_depth = ws.mean_queue_depth();
    sr.peak_queue_depth = ws.peak_queue_depth();
    result.sockets.push_back(sr);

    result.total_slo_violations += violations_[si];
    result.total_measured_periods += measured_periods_[si];
    result.summary.completed_requests += ws.completed_requests();
    fleet_latency.Add(ws.latencies());
  }

  result.summary.p50_latency = fleet_latency.Percentile(50.0);
  result.summary.p90_latency = fleet_latency.Percentile(90.0);
  result.summary.p99_latency = fleet_latency.Percentile(99.0);
  result.summary.metrics = metrics_.Export();
  return result;
}

FleetResult RunFleet(const FleetConfig& cfg, Seconds warmup_s, Seconds measure_s,
                     ThreadPool* pool) {
  Fleet fleet(cfg);
  const int warmup_periods =
      static_cast<int>(std::ceil(warmup_s / FleetConfig::control_period_s));
  const int measure_periods =
      std::max(1, static_cast<int>(std::ceil(measure_s / FleetConfig::control_period_s)));
  for (int p = 0; p < warmup_periods; ++p) {
    fleet.Step(pool);
  }
  fleet.ResetStats();
  for (int p = 0; p < measure_periods; ++p) {
    fleet.Step(pool);
  }
  return fleet.Collect();
}

}  // namespace papd
