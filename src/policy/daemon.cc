#include "src/policy/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/policy/invariants.h"
#include "src/policy/pstate_selector.h"

namespace papd {
namespace {

// Degradation ladder: consecutive invalid samples before falling back to
// the static floor.
constexpr int kFallbackAfter = 3;
// Consecutive failed (read-back mismatch) programming attempts before the
// RAPL safety net is armed.  The net is armed (on platforms that have a
// RAPL limit) while in fallback or under persistent write failure, and
// disarmed on recovery.
constexpr int kWriteRetryLimit = 3;
// Exponential backoff cap, in control periods, between programming retries
// while writes keep failing.
constexpr int kMaxBackoffPeriods = 4;

}  // namespace

// The Chrome-trace exporter renders TraceEvent ladder codes by this order.
static_assert(static_cast<int>(DegradationState::kNominal) == 0 &&
                  static_cast<int>(DegradationState::kHold) == 1 &&
                  static_cast<int>(DegradationState::kFallback) == 2,
              "obs exporter ladder-state names depend on this enum order");

const char* DegradationStateName(DegradationState state) {
  switch (state) {
    case DegradationState::kNominal:
      return "nominal";
    case DegradationState::kHold:
      return "hold";
    case DegradationState::kFallback:
      return "fallback";
  }
  return "?";
}

PolicyPlatform MakePolicyPlatform(const PlatformSpec& spec) {
  PolicyPlatform p;
  p.min_mhz = spec.min_mhz;
  p.max_mhz = spec.turbo_max_mhz;
  p.step_mhz = spec.step_mhz;
  p.num_cores = spec.num_cores;
  p.max_power_w = spec.tdp_w;
  // Datasheet-grade estimates; the feedback loops absorb the error.
  p.uncore_estimate_w = spec.power.uncore_base_w + Watts{1.0};
  p.core_min_w = Watts{1.0};
  p.core_max_w = std::max(Watts{2.0}, (spec.tdp_w - p.uncore_estimate_w) / spec.num_cores * 1.3);
  return p;
}

PowerDaemon::PowerDaemon(MsrFile* msr, std::vector<ManagedApp> apps, DaemonConfig config,
                         std::unique_ptr<ShareResource> policy)
    : msr_(msr),
      apps_(std::move(apps)),
      config_(config),
      platform_(MakePolicyPlatform(msr->spec())),
      turbostat_(msr),
      policy_(policy != nullptr ? std::move(policy) : MakePolicy(config_, platform_)) {
  const PolicyInfo& info = GetPolicyInfo(config_.kind);
  if (info.needs_per_core_power) {
    PAPD_CHECK(msr_->spec().has_per_core_power)
        << " " << info.name << " requires per-core power telemetry";
  }
  if (config_.audit) {
    auditor_ = std::make_unique<PolicyAuditor>(platform_, msr_->spec().max_simultaneous_pstates);
    if (info.controls) {
      policy_ = std::make_unique<AuditedPolicy>(std::move(policy_), auditor_.get());
    }
  }
  if (config_.raw_telemetry) {
    turbostat_.set_validation(false);
  }
  // Turbostat's validation rejections land directly in this registry —
  // the one count both fault_stats() and the metrics exporters report.
  turbostat_.BindInvalidSampleCounter(metrics_.GetCounter("telemetry.invalid_samples"));
  c_held_periods_ = metrics_.GetCounter("daemon.held_periods");
  c_fallback_periods_ = metrics_.GetCounter("daemon.fallback_periods");
  c_failed_programs_ = metrics_.GetCounter("daemon.failed_programs");
  c_backoff_skips_ = metrics_.GetCounter("daemon.backoff_skips");
  c_reprogram_skips_ = metrics_.GetCounter("daemon.reprogram_skips");
  g_pkg_w_ = metrics_.GetGauge("daemon.pkg_w");
  g_ladder_ = metrics_.GetGauge("daemon.ladder_state");
  h_redistribute_us_ = metrics_.GetHistogram("daemon.redistribute_latency_us",
                                             {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0});
  h_overshoot_w_ = metrics_.GetHistogram("daemon.overshoot_w",
                                         {0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
}

PowerDaemon::~PowerDaemon() = default;

DaemonFaultStats PowerDaemon::fault_stats() const {
  DaemonFaultStats stats;
  stats.invalid_samples = turbostat_.invalid_samples();
  stats.held_periods = static_cast<int>(c_held_periods_->value());
  stats.fallback_periods = static_cast<int>(c_fallback_periods_->value());
  stats.failed_programs = static_cast<int>(c_failed_programs_->value());
  stats.backoff_skips = static_cast<int>(c_backoff_skips_->value());
  stats.reprogram_skips = static_cast<int>(c_reprogram_skips_->value());
  return stats;
}

void PowerDaemon::Emit(obs::TraceEventType type, int32_t index, int32_t code,
                       obs::TracePayload a, obs::TracePayload b) const {
  if (config_.obs.sink == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.t = last_sample_.t;
  event.type = type;
  event.shard = config_.obs.shard;
  event.index = index;
  event.code = code;
  event.a = a;
  event.b = b;
  config_.obs.sink->OnEvent(event);
}

void PowerDaemon::TransitionLadder(DegradationState to) {
  if (state_ != to) {
    Emit(obs::TraceEventType::kLadderTransition, static_cast<int32_t>(state_),
         static_cast<int32_t>(to), bad_sample_streak_, 0.0);
    state_ = to;
  }
  g_ladder_->Set(static_cast<double>(to));
}

void PowerDaemon::SetPowerLimit(Watts limit_w) {
  const bool changed = limit_w != config_.power_limit_w;
  config_.power_limit_w = limit_w;
  if (config_.kind == PolicyKind::kRaplOnly) {
    msr_->WriteRaplLimitW(limit_w);
  } else if (rapl_net_armed_ && changed) {
    // An armed net follows the budget, never looser than the limit it
    // replaced.  Only a change is written: a RAPL write resets the
    // controller's ceiling and running average.
    msr_->WriteRaplLimitW(rapl_limit_under_net_.has_value()
                              ? std::min(limit_w, *rapl_limit_under_net_)
                              : limit_w);
  }
}

void PowerDaemon::Start() {
  if (config_.kind == PolicyKind::kRaplOnly) {
    msr_->WriteRaplLimitW(config_.power_limit_w);
  }
  targets_ = policy_->InitialDistribution(apps_, config_.power_limit_w);
  Program(targets_);
}

void PowerDaemon::Step() {
  const auto wall_start = std::chrono::steady_clock::now();
  last_sample_ = turbostat_.Sample();
  const int period = period_;
  period_++;
  g_pkg_w_->Set(last_sample_.pkg_w);
  h_overshoot_w_->Observe(std::max(Watts{0.0}, last_sample_.pkg_w - config_.power_limit_w));
  Emit(obs::TraceEventType::kPeriodBegin, period, static_cast<int32_t>(state_),
       last_sample_.pkg_w, config_.power_limit_w);
  {
    // Deep library code (min-funding revocation) traces through the
    // thread-local context for the duration of the control body.
    obs::ScopedThreadTrace trace_scope(config_.obs.sink, last_sample_.t, config_.obs.shard);
    StepWithSample(last_sample_);
  }
  const double latency_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - wall_start)
          .count();
  h_redistribute_us_->Observe(latency_us);
  metrics_.Snapshot(last_sample_.t);
  Emit(obs::TraceEventType::kPeriodEnd, period, static_cast<int32_t>(state_), latency_us, 0.0);
}

void PowerDaemon::StepWithSample(const TelemetrySample& sample) {
  if (config_.degradation.enabled && !sample.valid) {
    // Degradation ladder, invalid rung: the policy's internal state is
    // deliberately frozen — no Redistribute call — so the first valid
    // sample resumes from the pre-fault targets.  (Turbostat already
    // counted the rejection in the metrics registry.)
    bad_sample_streak_++;
    if (bad_sample_streak_ >= kFallbackAfter) {
      if (state_ != DegradationState::kFallback) {
        PAPD_LOG_INFO("daemon: %d consecutive invalid samples, entering fallback",
                      bad_sample_streak_);
        TransitionLadder(DegradationState::kFallback);
        ArmRaplSafetyNet();
      }
      c_fallback_periods_->Increment();
      Program(FallbackTargets());
    } else {
      TransitionLadder(DegradationState::kHold);
      c_held_periods_->Increment();
      // Hold: last-known-good targets stay programmed; touch nothing.
    }
    return;
  }

  if (state_ != DegradationState::kNominal) {
    // Recovery, resync period: restore the frozen nominal targets but do
    // not redistribute yet — this first sample is smeared over the outage
    // (stale gaps, a fallback interval at the floor), and controlling on
    // its averaged-down power would over-grant for a period.  The next
    // sample covers one clean period at nominal targets.
    PAPD_LOG_INFO("daemon: telemetry recovered after %d bad periods (%s)", bad_sample_streak_,
                  DegradationStateName(state_));
    TransitionLadder(DegradationState::kNominal);
    bad_sample_streak_ = 0;
    Program(targets_);
    return;
  }
  bad_sample_streak_ = 0;

  if (config_.degradation.enabled && !last_program_ok_ && !last_programmed_want_.empty()) {
    // The last program never verified: hardware is not in the state the
    // policy believes it commanded, so this sample describes an
    // un-actuated world.  Feeding it to the policy would mistake a dropped
    // ramp-down for headroom (or a dropped ramp-up for saturation).
    // Retry the pending program (subject to backoff) and control resumes
    // once a read-back confirms it landed.
    Program(last_programmed_want_);
    return;
  }

  if (config_.use_hwp_hints) {
    if (!saturation_) {
      saturation_ = std::make_unique<SaturationDetector>(platform_, apps_.size());
    }
    saturation_->Observe(apps_, sample, targets_);
    for (size_t i = 0; i < apps_.size(); i++) {
      apps_[i].max_useful_mhz = saturation_->UsefulMaxMhz(i);
    }
  }
  const bool tracing = config_.obs.sink != nullptr;
  std::vector<Mhz> before_targets;
  if (tracing) {
    before_targets = targets_;
  }
  targets_ = policy_->Redistribute(apps_, sample, config_.power_limit_w);
  if (saturation_ != nullptr) {
    // HWP-style exploration: occasionally run one app a notch slower for a
    // period to map its IPS-vs-frequency response.
    targets_ = saturation_->ApplyProbes(apps_, targets_);
  }
  if (tracing && ActivelyControlling()) {
    int32_t changed = 0;
    for (size_t i = 0; i < targets_.size(); i++) {
      if (i >= before_targets.size() || targets_[i] != before_targets[i]) {
        changed++;
      }
    }
    Emit(obs::TraceEventType::kRedistribute, static_cast<int32_t>(apps_.size()), changed,
         sample.pkg_w - config_.power_limit_w, 0.0);
    for (size_t i = 0; i < targets_.size(); i++) {
      const Mhz before_i{i < before_targets.size() ? before_targets[i] : Mhz{0.0}};
      Emit(obs::TraceEventType::kAppTarget, static_cast<int32_t>(i),
           targets_[i] != before_i ? 1 : 0, before_i, targets_[i]);
    }
  }
  Program(targets_);
  if (auditor_ != nullptr && ActivelyControlling()) {
    auditor_->CheckPowerCeiling(sample, config_.power_limit_w, targets_);
  }
}

bool PowerDaemon::ActivelyControlling() const { return GetPolicyInfo(config_.kind).controls; }

std::vector<Mhz> PowerDaemon::FallbackTargets() const {
  const Mhz floor_mhz =
      config_.degradation.floor_mhz > Mhz{0.0} ? config_.degradation.floor_mhz : platform_.min_mhz;
  std::vector<Mhz> want = targets_;
  for (Mhz& t : want) {
    if (t != PriorityPolicy::kStopped) {
      t = floor_mhz;
    }
  }
  return want;
}

void PowerDaemon::ArmRaplSafetyNet() {
  // kRaplOnly's own limit is the budget: nothing to arm.
  if (rapl_net_armed_ || !msr_->spec().has_rapl_limit || config_.kind == PolicyKind::kRaplOnly) {
    return;
  }
  // Never loosen a limit already in force; a looser one comes back on
  // disarm.
  const std::optional<Watts> in_force = msr_->ReadRaplLimitW();
  if (in_force.has_value() && *in_force <= config_.power_limit_w) {
    return;
  }
  rapl_limit_under_net_ = in_force;
  msr_->WriteRaplLimitW(config_.power_limit_w);
  rapl_net_armed_ = true;
}

void PowerDaemon::DisarmRaplSafetyNet() {
  if (!rapl_net_armed_) {
    return;
  }
  if (rapl_limit_under_net_.has_value()) {
    msr_->WriteRaplLimitW(*rapl_limit_under_net_);
  } else {
    msr_->DisableRaplLimit();
  }
  rapl_net_armed_ = false;
}

bool PowerDaemon::VerifyProgrammed(const std::vector<Mhz>& want) const {
  const bool ryzen = msr_->spec().max_simultaneous_pstates > 0;
  for (size_t i = 0; i < apps_.size(); i++) {
    if (i >= last_expected_mhz_.size() || want[i] == PriorityPolicy::kStopped) {
      continue;
    }
    Mhz readback_mhz;
    if (ryzen) {
      const int slot = static_cast<int>(msr_->Read(kMsrAmdPstateCtl, apps_[i].cpu));
      readback_mhz = msr_->ReadPstateDefMhz(slot);
    } else {
      readback_mhz =
          Mhz{static_cast<double>((msr_->Read(kMsrIa32PerfCtl, apps_[i].cpu) >> 8) & 0xFF) * 100.0};
    }
    if (readback_mhz != last_expected_mhz_[i]) {
      return false;
    }
  }
  return true;
}

void PowerDaemon::Program(const std::vector<Mhz>& want) {
  if (!config_.degradation.enabled) {
    // Naive baseline: rewrite every period, never look back (and never
    // verify — the trace reports the write as unverified success).
    ProgramTargets(want);
    EmitPstateWrite(want, /*verified_ok=*/true);
    return;
  }
  if (last_program_ok_ && want == last_programmed_want_) {
    // Identical state already verified in hardware: skip the rewrite.
    // This is what keeps monitoring-only policies (kRaplOnly, kStatic)
    // from reprogramming untouched registers every period.
    c_reprogram_skips_->Increment();
    return;
  }
  if (retry_wait_ > 0 && want == last_programmed_want_) {
    // Still backing off after a failed attempt at this same state.
    retry_wait_--;
    c_backoff_skips_->Increment();
    return;
  }
  ProgramTargets(want);
  last_programmed_want_ = want;
  last_program_ok_ = VerifyProgrammed(want);
  EmitPstateWrite(want, last_program_ok_);
  if (last_program_ok_) {
    write_fail_streak_ = 0;
    backoff_ = 1;
    retry_wait_ = 0;
    if (state_ == DegradationState::kNominal) {
      DisarmRaplSafetyNet();
    }
  } else {
    c_failed_programs_->Increment();
    write_fail_streak_++;
    retry_wait_ = backoff_;
    backoff_ = std::min(backoff_ * 2, kMaxBackoffPeriods);
    PAPD_LOG_INFO("daemon: P-state program failed read-back (streak %d), backing off %d periods",
                  write_fail_streak_, retry_wait_);
    if (write_fail_streak_ >= kWriteRetryLimit) {
      ArmRaplSafetyNet();
    }
  }
}

void PowerDaemon::EmitPstateWrite(const std::vector<Mhz>& want, bool verified_ok) const {
  if (config_.obs.sink == nullptr) {
    return;
  }
  int32_t running = 0;
  Mhz hi{0.0};
  Mhz lo{0.0};
  for (size_t i = 0; i < want.size() && i < last_expected_mhz_.size(); i++) {
    if (want[i] == PriorityPolicy::kStopped) {
      continue;
    }
    const Mhz programmed{last_expected_mhz_[i]};
    hi = running == 0 ? programmed : std::max(hi, programmed);
    lo = running == 0 ? programmed : std::min(lo, programmed);
    running++;
  }
  Emit(obs::TraceEventType::kPstateWrite, running, verified_ok ? 1 : 0, hi, lo);
}

void PowerDaemon::ProgramTargets(const std::vector<Mhz>& want) {
  const PlatformSpec& spec = msr_->spec();
  const PStateTable grid(spec.min_mhz, spec.turbo_max_mhz, spec.step_mhz);

  // Core online/offline transitions first (stopped apps release power).
  for (size_t i = 0; i < apps_.size(); i++) {
    const bool want_online = want[i] != PriorityPolicy::kStopped;
    if (msr_->CoreOnline(apps_[i].cpu) != want_online) {
      msr_->SetCoreOnline(apps_[i].cpu, want_online);
    }
  }

  // Frequencies actually written to hardware this period, for the
  // translation audit (grid alignment, simultaneous-P-state limit) and for
  // the read-back verification in Program().
  std::vector<Mhz> programmed;
  last_expected_mhz_.assign(apps_.size(), PriorityPolicy::kStopped);

  if (spec.max_simultaneous_pstates > 0) {
    // Ryzen path: reduce running apps' targets to <= 3 levels.
    std::vector<Mhz> running_targets;
    std::vector<size_t> running_apps;
    for (size_t i = 0; i < apps_.size(); i++) {
      if (want[i] != PriorityPolicy::kStopped) {
        running_targets.push_back(grid.QuantizeDown(want[i]));
        running_apps.push_back(i);
      }
    }
    if (!running_targets.empty()) {
      const PStateSelection sel =
          SelectPStates(running_targets, spec.max_simultaneous_pstates, spec.step_mhz);
      std::vector<Mhz> slot_mhz(sel.levels.size());
      for (size_t s = 0; s < sel.levels.size(); s++) {
        slot_mhz[s] = std::clamp(sel.levels[s], spec.min_mhz, spec.turbo_max_mhz);
        msr_->WritePstateDefMhz(static_cast<int>(s), slot_mhz[s]);
      }
      for (size_t j = 0; j < running_apps.size(); j++) {
        msr_->SelectPstate(apps_[running_apps[j]].cpu, sel.assignment[j]);
        programmed.push_back(slot_mhz[static_cast<size_t>(sel.assignment[j])]);
        last_expected_mhz_[running_apps[j]] = programmed.back();
      }
    }
  } else {
    // Skylake path: per-core ratios.
    for (size_t i = 0; i < apps_.size(); i++) {
      if (want[i] == PriorityPolicy::kStopped) {
        continue;
      }
      const Mhz quantized{grid.QuantizeDown(want[i])};
      msr_->WritePerfTargetMhz(apps_[i].cpu, quantized);
      programmed.push_back(quantized);
      last_expected_mhz_[i] = quantized;
    }
  }

  if (auditor_ != nullptr) {
    auditor_->CheckTranslation(programmed);
  }
}

}  // namespace papd
