#include "src/governor/governor_daemon.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/units.h"

namespace papd {

GovernorDaemon::GovernorDaemon(MsrFile* msr, GovernorKind kind)
    : msr_(msr), turbostat_(msr) {
  const PlatformSpec& spec = msr->spec();
  const GovernorLimits limits{
      .min_mhz = spec.min_mhz, .max_mhz = spec.turbo_max_mhz, .step_mhz = spec.step_mhz};
  for (int c = 0; c < msr->num_cores(); c++) {
    governors_.push_back(MakeGovernor(kind, limits));
    requests_.push_back(spec.base_max_mhz);
  }
}

void GovernorDaemon::Emit(obs::TraceEventType type, int32_t index, int32_t code, double a,
                          double b) const {
  if (obs_sink_ == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.t = last_sample_t_;
  event.type = type;
  event.shard = obs_shard_;
  event.index = index;
  event.code = code;
  event.a = a;
  event.b = b;
  obs_sink_->OnEvent(event);
}

void GovernorDaemon::Step() {
  const TelemetrySample sample = turbostat_.Sample();
  last_sample_t_ = sample.t;
  const int period = period_;
  period_++;
  // Governor ladder has two rungs: nominal (0) and fallback (2).
  const auto ladder = [this] { return in_fallback() ? 2 : 0; };
  Emit(obs::TraceEventType::kPeriodBegin, period, ladder(), sample.pkg_w, 0.0);
  if (!sample.valid || sample.dt <= Seconds{0.0}) {
    invalid_streak_++;
    if (invalid_streak_ == kFallbackAfter && msr_->spec().max_simultaneous_pstates == 0) {
      // Telemetry has been dark long enough: a utilization governor flying
      // blind must not keep cores at a possibly-stale high request.
      Emit(obs::TraceEventType::kLadderTransition, 0, 2, invalid_streak_, 0.0);
      for (int c = 0; c < msr_->num_cores(); c++) {
        const auto i = static_cast<size_t>(c);
        requests_[i] = msr_->spec().min_mhz;
        msr_->WritePerfTargetMhz(c, requests_[i]);
      }
      Emit(obs::TraceEventType::kPstateWrite, msr_->num_cores(), 1, msr_->spec().min_mhz,
           msr_->spec().min_mhz);
    }
    Emit(obs::TraceEventType::kPeriodEnd, period, ladder(), 0.0, 0.0);
    return;
  }
  if (in_fallback()) {
    Emit(obs::TraceEventType::kLadderTransition, 2, 0, invalid_streak_, 0.0);
  }
  invalid_streak_ = 0;
  for (int c = 0; c < msr_->num_cores(); c++) {
    const auto i = static_cast<size_t>(c);
    if (!sample.cores[i].online) {
      continue;
    }
    if (!sample.cores[i].plausible) {
      continue;  // Hold this core; its busy reading is last period's.
    }
    requests_[i] = governors_[i]->Decide(sample.cores[i].busy, requests_[i]);
    const PlatformSpec& spec = msr_->spec();
    PAPD_CHECK(IsFinite(requests_[i])) << " governor decision for core " << c << " is non-finite";
    PAPD_CHECK_GE(requests_[i], spec.min_mhz) << " governor decision for core " << c;
    PAPD_CHECK_LE(requests_[i], spec.turbo_max_mhz) << " governor decision for core " << c;
    PAPD_CHECK(OnFrequencyGrid(requests_[i] - spec.min_mhz, spec.step_mhz))
        << " governor decision " << requests_[i] << " MHz for core " << c << " off the "
        << spec.step_mhz << " MHz grid";
    if (msr_->spec().max_simultaneous_pstates == 0) {
      msr_->WritePerfTargetMhz(c, requests_[i]);
    }
    // On a 3-P-state platform a per-core governor cannot program arbitrary
    // per-core values; the bench only runs governors on Skylake.  (A Ryzen
    // governor would need the daemon's selector; Linux's acpi-cpufreq has
    // the same restriction on these parts.)
  }
  if (obs_sink_ != nullptr && !requests_.empty()) {
    const auto [lo, hi] = std::minmax_element(requests_.begin(), requests_.end());
    Emit(obs::TraceEventType::kPstateWrite, static_cast<int32_t>(requests_.size()), 1, *hi, *lo);
  }
  Emit(obs::TraceEventType::kPeriodEnd, period, 0, 0.0, 0.0);
}

}  // namespace papd
