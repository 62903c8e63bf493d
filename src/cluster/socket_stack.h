// The per-socket simulation stack: the one place a socket is built.
//
// A SocketStack is one full per-socket pipeline: the package, its MSR
// surface (with the caller's fault plan armed), the pinned processes or
// websearch service, the policy daemon, and a simulator driving ticks +
// periodic daemon steps.  The experiment drivers (RunScenario,
// RunWebsearch) window and reduce one stack; the budget tree advances one
// per leaf.  Stacks share nothing mutable, so a tree's leaf set can advance
// on worker threads without synchronization and stay bit-identical to a
// serial run.

#ifndef SRC_CLUSTER_SOCKET_STACK_H_
#define SRC_CLUSTER_SOCKET_STACK_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/harness.h"
#include "src/msr/fault_plan.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/websearch.h"
#include "src/specsim/workload.h"

namespace papd {

// How a budget-tree node sizes each child's claim before distributing.
enum class RackArbiterKind {
  // Pure share-proportional split between each child's floor and ceiling.
  kShares,
  // Demand-following: a child's claim is capped just above its measured
  // draw, so surplus from lightly loaded children flows to busy ones
  // (min-funding revocation does the redistribution).
  kDemand,
  // Share-proportional like kShares, but each node's shares are multiplied
  // by a per-node bias maintained by an SloFeedbackArbiter
  // (src/policy/slo_feedback.h): watts drift toward latency-violating
  // subtrees, bounded-step with hysteresis.  Bounds are untouched, so the
  // structural cap invariant is unaffected.
  kSloFeedback,
};

inline constexpr int kNumRackArbiterKinds = 3;

// Stable name for bench JSON / sweep plot keys; covered by the papd_lint
// registry-completeness rule like the other registered enums.
const char* RackArbiterKindName(RackArbiterKind kind);

// One socket of a budget tree (or of one experiment run): a platform running
// a fixed app mix under its own PowerDaemon.  SocketStack reads the platform,
// workload and seed fields; the budget tree reads the rest (policy, audit,
// shares and bounds) when it configures a leaf's daemon and arbitrates.
//
// Equality is field by field over every member, nested structs included
// (the compiler lists the fields, so a new one is compared without anyone
// remembering to).  Two sockets with equal configs evolve identically under
// equal grant histories: BudgetTree's replica classes are built on this.
struct RackSocketConfig {
  PlatformSpec platform;
  std::vector<AppSetup> apps;
  PolicyKind policy = PolicyKind::kFrequencyShares;
  // Arbiter share weight for budget splits (MakeFlatRack copies it onto the
  // socket's tree node).
  double shares = 1.0;
  // Budget floor the arbiter guarantees this socket (>= the socket's idle
  // draw, or the daemon would throttle forever); 0 derives a floor from the
  // platform's RAPL minimum (or 1/4 TDP without RAPL).
  Watts min_budget_w{0.0};
  // Budget ceiling; 0 derives it from rapl_max_w (or TDP without RAPL).
  Watts max_budget_w{0.0};
  uint64_t seed = 42;
  // Run the per-socket daemon's invariant auditor.
  bool audit = true;
  // Use measured standalone baselines (kPerformanceShares needs them; costs
  // one cached standalone simulation per distinct profile).
  bool use_baseline_ips = true;

  // --- Serving-socket mode ---------------------------------------------------
  // When set, the socket runs a websearch service (open- or closed-loop per
  // websearch_params.open_loop) on cores 0..n-2, optionally a cpuburn power
  // virus on the last core, instead of the `apps` process mix; `apps` must
  // then be empty.  RunWebsearch and Fleet's latency-sensitive leaves both
  // build their sockets this way.
  bool websearch = false;
  WebSearch::Params websearch_params;
  bool with_cpuburn = false;
  double websearch_shares = 90.0;
  double cpuburn_shares = 10.0;

  bool operator==(const RackSocketConfig&) const = default;
};

// A member type without operator== would make the defaulted one deleted;
// this fails the build here instead of at a distant comparison.
static_assert(std::equality_comparable<RackSocketConfig>);

// Budget floor / ceiling an arbiter uses for this socket (explicit config
// value, or derived from the platform).
Watts SocketFloorW(const RackSocketConfig& cfg);
Watts SocketCeilingW(const RackSocketConfig& cfg);

// Aborts when the configured floor exceeds the ceiling.  Arbiters clamp
// demand claims with std::clamp(demand, floor, ceiling), which is UB on an
// inverted range — every arbiter validates its sockets up front instead of
// trusting the config.
void ValidateSocketBudgetBounds(const RackSocketConfig& cfg);

struct SocketStack {
  // Builds the socket `cfg` describes.  The daemon runs exactly `daemon_cfg`
  // (policy, limit, period, audit, obs sink and shard are the caller's);
  // `faults` is armed on the MSR surface before the daemon is constructed.
  // The daemon step is registered on the simulator every
  // daemon_cfg.period_s unless the policy is kStatic or the socket is held
  // (see AdvancePeriod).
  SocketStack(const RackSocketConfig& cfg, const DaemonConfig& daemon_cfg,
              const FaultPlan& faults, Seconds tick_s, const TickOptions& tick);

  SocketStack(const SocketStack&) = delete;
  SocketStack& operator=(const SocketStack&) = delete;

  // Advances one control period and records the average power drawn in it.
  // Under TickOptions::socket_hold the period advances through
  // AdvanceSteady segments and the daemon step is *skipped* once the daemon
  // has been quiescent for kQuietPeriodsToHold periods; any grant change,
  // control-epoch bump, ladder departure, fault arming, or out-of-band
  // power drift resyncs back to live daemon stepping.
  void AdvancePeriod(Seconds period_s);

  // Consecutive quiescent daemon periods before daemon stepping is held.
  static constexpr int kQuietPeriodsToHold = 3;

  RackSocketConfig config;
  Package pkg;
  MsrFile msr;
  std::vector<std::unique_ptr<Process>> procs;
  // The websearch service when config.websearch is set; nullptr otherwise.
  std::unique_ptr<WebSearch> websearch;
  std::unique_ptr<PowerDaemon> daemon;
  Simulator sim;
  Watts last_measured_w{0.0};

  // --- Socket-hold state (only used when hold_mode) ------------------------
  bool hold_mode = false;     // socket_hold requested && policy is kMultiRate.
  bool daemon_held = false;   // Daemon steps currently skipped.
  uint64_t daemon_steps_skipped = 0;
  uint64_t hold_resyncs = 0;  // Hold exits forced by a predicate failure.

 private:
  // Runs (or skips) the daemon for the period that just finished and
  // updates the hold state machine.
  void StepDaemonHeld();

  int quiet_streak_ = 0;
  // Snapshot when the hold engaged / after the last live step.
  uint64_t held_epoch_ = 0;
  Watts last_limit_w_{0.0};
  Watts held_power_w_{0.0};
};

}  // namespace papd

#endif  // SRC_CLUSTER_SOCKET_STACK_H_
