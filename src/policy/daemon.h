// The userspace power-delivery daemon (paper Section 5).
//
// The daemon pins applications to cores, selects their initial P-states
// from the configured policy, then runs a monitoring loop (1 second in the
// paper and by default here): read processor statistics through turbostat,
// let the policy redistribute the managed resource, and translate the new
// targets into hardware P-state writes.
//
// Translation is platform specific and lives in the daemon:
//   - Skylake: quantize each target down to the 100 MHz grid and write the
//     per-core PERF_CTL ratio;
//   - Ryzen: reduce the targets to at most three levels with the
//     three-P-state selector, program the P-state definition MSRs, and
//     point each core at its slot (25 MHz grid).
// Stopped apps (priority policy starvation) have their cores put into a
// deep C-state.
//
// Telemetry is not trusted blindly.  Turbostat validates every sample, and
// the daemon walks a degradation ladder on bad input:
//
//   nominal   valid sample: redistribute, translate, program (skipping the
//             hardware writes entirely when the programmed state would not
//             change — monitoring-only policies never rewrite registers);
//   hold      invalid sample: keep the last-known-good targets, touch
//             nothing, wait for telemetry to come back;
//   fallback  three consecutive invalid samples: program every running
//             core to a conservative static floor (the platform minimum by
//             default) and, where the platform has one, arm the hardware
//             RAPL limit — power can no longer exceed the budget no matter
//             how long telemetry stays dark.  A limit already in force at
//             or below the budget (one set outside the daemon, or
//             kRaplOnly's own) is left as it is; a looser one is replaced
//             and put back when the net is disarmed.  An armed net follows
//             later budget changes, never looser than the limit it
//             replaced.
//
// Recovery is immediate: the first valid sample returns the daemon to
// nominal, and because the policy's internal state was frozen during the
// fault the next redistribution resumes from the pre-fault targets.
// P-state writes are verified by read-back; failed programming is retried
// with exponential backoff capped at four periods, and three consecutive
// failures arm the same RAPL safety net.  These counts are constants in
// daemon.cc; only the ladder switch and the fallback floor are settable.

#ifndef SRC_POLICY_DAEMON_H_
#define SRC_POLICY_DAEMON_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/msr/msr.h"
#include "src/msr/turbostat.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/policy/app_model.h"
#include "src/policy/hwp.h"
#include "src/policy/policy_registry.h"
#include "src/policy/priority_policy.h"
#include "src/policy/share_policy.h"

namespace papd {

// Where the daemon currently sits on the degradation ladder.
enum class DegradationState {
  kNominal,   // Valid telemetry; normal control loop.
  kHold,      // Invalid sample(s); last-known-good targets held.
  kFallback,  // Too many bad periods; conservative static/RAPL floor.
};

const char* DegradationStateName(DegradationState state);

struct DegradationConfig {
  // Master switch.  Off reproduces the pre-hardening daemon (raw telemetry
  // consumed as-is, unconditional reprogramming, no write verification) —
  // the fault-tolerance ablation's "naive" baseline.
  bool enabled = true;
  // Static floor programmed in fallback; 0 = the platform minimum.
  Mhz floor_mhz{0.0};
};

// Degradation/fault bookkeeping, exposed for tests and benches.  This is a
// view assembled from the daemon's metrics registry — the registry counters
// are the single source of truth (invalid_samples in particular is counted
// by Turbostat itself, so the daemon can never disagree with its sampler).
struct DaemonFaultStats {
  int invalid_samples = 0;   // Samples rejected by telemetry validation.
  int held_periods = 0;      // Periods spent holding last-known-good targets.
  int fallback_periods = 0;  // Periods spent at the conservative floor.
  int failed_programs = 0;   // Programming attempts whose read-back mismatched.
  int backoff_skips = 0;     // Periods skipped while backing off after failure.
  int reprogram_skips = 0;   // Rewrites skipped because targets were unchanged.
};

// Observability hookup for one daemon (see src/obs/trace.h).
struct DaemonObs {
  // Receives one TraceEvent per decision point; null disables tracing (the
  // emission sites then cost one branch each).
  ObsSink* sink = nullptr;
  // Shard id stamped on every event: the budget-tree node index of the
  // socket (0 for single-socket runs).
  int16_t shard = 0;
};

struct DaemonConfig {
  PolicyKind kind = PolicyKind::kFrequencyShares;
  // The package budget; kRaplOnly also programs it into the hardware RAPL
  // limit register.
  Watts power_limit_w{85.0};
  Seconds period_s{1.0};
  PriorityPolicy::Options priority;
  // kStatic: the frequency every managed core is pinned to (0 = the
  // platform maximum).
  Mhz static_mhz{0.0};
  // Enable HWP-style saturation hints (paper Section 4.4): the daemon
  // detects each app's highest useful frequency at runtime and the policies
  // stop allocating beyond it, redistributing the excess.
  bool use_hwp_hints = false;
  // Audit with the PolicyAuditor (src/policy/invariants.h): every
  // translation step (grid alignment, the simultaneous-P-state limit) and,
  // for controlling kinds, every initial-distribution and redistribution
  // step (budget conservation, share monotonicity or the priority
  // structure) and the power ceiling (package power never exceeds the
  // limit plus slack once converged).  A violation aborts with a formatted
  // CHECK failure.
  bool audit = true;
  // Graceful-degradation ladder (see the file comment).
  DegradationConfig degradation;
  // Consume raw, unvalidated telemetry (Turbostat::set_validation(false)).
  // Only the fault-tolerance ablation's naive baseline sets this.
  bool raw_telemetry = false;
  // Trace-event sink and shard tag (appended last: existing designated
  // initializers keep working).
  DaemonObs obs;
};

class PolicyAuditor;

class PowerDaemon {
 public:
  // Borrows the MSR file (and with it the platform).  Runs `policy`, or,
  // when it is null, config.kind's policy from the registry.  A caller's
  // policy is the extension point for custom policies (see
  // examples/custom_policy.cpp); config.kind still decides RAPL
  // programming, telemetry requirements and whether the policy is audited
  // and traced as controlling.
  PowerDaemon(MsrFile* msr, std::vector<ManagedApp> apps, DaemonConfig config,
              std::unique_ptr<ShareResource> policy = nullptr);

  ~PowerDaemon();

  PowerDaemon(const PowerDaemon&) = delete;
  PowerDaemon& operator=(const PowerDaemon&) = delete;

  // Programs the initial distribution (and, under kRaplOnly, the RAPL
  // register).
  void Start();

  // One control iteration; call once per period.
  void Step();

  // Changes the power limit at runtime (cluster managers adjust node caps
  // while jobs run, e.g. Facebook's Dynamo cited in the paper).  Takes
  // effect at the next Step(); under kRaplOnly, or while the RAPL safety
  // net is armed, it reprograms the RAPL register immediately.
  void SetPowerLimit(Watts limit_w);

  // Per-app frequency targets after the last iteration;
  // PriorityPolicy::kStopped for starved apps.
  const std::vector<Mhz>& targets() const { return targets_; }
  const std::vector<ManagedApp>& apps() const { return apps_; }
  const DaemonConfig& config() const { return config_; }

  // The sample the last Step() acted on (no cores before the first Step()).
  // No older sample is kept; metrics() rows hold the per-period series.
  const TelemetrySample& last_sample() const { return last_sample_; }

  // The invariant auditor, or nullptr when config.audit is false.
  PolicyAuditor* auditor() { return auditor_.get(); }

  // --- Degradation introspection ---------------------------------------------
  DegradationState degradation_state() const { return state_; }
  // Assembled from the metrics registry (see DaemonFaultStats).
  DaemonFaultStats fault_stats() const;
  int bad_sample_streak() const { return bad_sample_streak_; }
  int write_fail_streak() const { return write_fail_streak_; }

  // --- Observability ----------------------------------------------------------
  // The daemon's metrics registry: fault counters, gauges (daemon.pkg_w,
  // daemon.ladder_state) and histograms.  Its rows, one per Step(), are the
  // daemon's one per-period series; export with obs::MetricsCsv/MetricsJson.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  // The control-loop body; Step() wraps it with period begin/end tracing,
  // the latency measurement and the per-period metrics snapshot.
  void StepWithSample(const TelemetrySample& sample);
  // Translates `want` into hardware writes (online transitions, Ryzen slot
  // selection or Skylake per-core ratios) and runs the translation audit.
  void ProgramTargets(const std::vector<Mhz>& want);
  // ProgramTargets plus the hardening wrapper: skip when nothing changed,
  // verify by read-back, back off exponentially on persistent failure and
  // arm the RAPL safety net past the retry limit.
  void Program(const std::vector<Mhz>& want);
  // Reads back the effective per-app request and compares against `want`.
  bool VerifyProgrammed(const std::vector<Mhz>& want) const;
  // kPstateWrite trace event summarizing what translation just wrote.
  void EmitPstateWrite(const std::vector<Mhz>& want, bool verified_ok) const;
  // Per-app conservative floor used in fallback.
  std::vector<Mhz> FallbackTargets() const;
  void ArmRaplSafetyNet();
  void DisarmRaplSafetyNet();
  // True for kinds that actively control P-states every period (the power
  // ceiling audit only makes sense for them).
  bool ActivelyControlling() const;
  // Emits through config_.obs.sink when one is installed.  a/b accept any
  // payload obs::ToPayload handles (doubles or typed quantities).
  void Emit(obs::TraceEventType type, int32_t index, int32_t code, obs::TracePayload a,
            obs::TracePayload b) const;
  template <class A, class B>
  void Emit(obs::TraceEventType type, int32_t index, int32_t code, A a, B b) const {
    Emit(type, index, code, obs::ToPayload(a), obs::ToPayload(b));
  }
  // Degradation-ladder move with trace event + gauge update.
  void TransitionLadder(DegradationState to);

  MsrFile* msr_;
  std::vector<ManagedApp> apps_;
  DaemonConfig config_;
  PolicyPlatform platform_;
  Turbostat turbostat_;

  std::unique_ptr<ShareResource> policy_;
  std::unique_ptr<SaturationDetector> saturation_;
  std::unique_ptr<PolicyAuditor> auditor_;

  std::vector<Mhz> targets_;
  TelemetrySample last_sample_;

  // --- Observability state ----------------------------------------------------
  obs::MetricsRegistry metrics_;
  // Cached registry pointers bumped on the hot path (no name lookups).
  obs::Counter* c_held_periods_ = nullptr;
  obs::Counter* c_fallback_periods_ = nullptr;
  obs::Counter* c_failed_programs_ = nullptr;
  obs::Counter* c_backoff_skips_ = nullptr;
  obs::Counter* c_reprogram_skips_ = nullptr;
  obs::Gauge* g_pkg_w_ = nullptr;
  obs::Gauge* g_ladder_ = nullptr;
  obs::Histogram* h_redistribute_us_ = nullptr;
  obs::Histogram* h_overshoot_w_ = nullptr;
  // Control periods completed (trace-event index).
  int period_ = 0;

  // --- Degradation-ladder state ----------------------------------------------
  DegradationState state_ = DegradationState::kNominal;
  int bad_sample_streak_ = 0;
  int write_fail_streak_ = 0;
  // Periods left to wait before the next programming retry, and the current
  // backoff width it was reset from.
  int retry_wait_ = 0;
  int backoff_ = 1;
  // Last target vector handed to ProgramTargets, and whether its read-back
  // verified; rewrites are skipped only when the last program stuck.
  std::vector<Mhz> last_programmed_want_;
  // What translation actually wrote per app (post-quantization, post-slot
  // reduction; PriorityPolicy::kStopped for stopped apps) — the expectation
  // VerifyProgrammed reads hardware back against.
  std::vector<Mhz> last_expected_mhz_;
  bool last_program_ok_ = false;
  bool rapl_net_armed_ = false;
  // The package limit the armed net replaced (nullopt: none was in force).
  std::optional<Watts> rapl_limit_under_net_;
};

// Derives the policy-visible platform constants from a platform spec (the
// datasheet facts an operator would configure the daemon with).
PolicyPlatform MakePolicyPlatform(const PlatformSpec& spec);

}  // namespace papd

#endif  // SRC_POLICY_DAEMON_H_
