#include "src/governor/thermald.h"

#include <algorithm>

namespace papd {
namespace {

// Release throttling only below limit - hysteresis (avoids flapping at the
// threshold).
constexpr Celsius kHysteresisC = 3.0;
// kGlobalRapl: watts moved per period.
constexpr Watts kRaplStepW{2.0};

}  // namespace

ThermalDaemon::ThermalDaemon(MsrFile* msr, Config config)
    : msr_(msr), config_(config), turbostat_(msr), rapl_limit_w_(msr->spec().rapl_max_w) {}

void ThermalDaemon::Step() {
  const TelemetrySample sample = turbostat_.Sample();
  if (sample.dt <= Seconds{0.0}) {
    return;
  }
  const PlatformSpec& spec = msr_->spec();

  if (config_.mode == Mode::kPerCoreDvfs) {
    for (const CoreTelemetry& core : sample.cores) {
      if (!core.online) {
        continue;
      }
      const Mhz current = msr_->ReadPerfTargetMhz(core.cpu);
      if (core.temp_c > config_.limit_c) {
        msr_->WritePerfTargetMhz(core.cpu,
                                 std::max(spec.min_mhz, current - spec.step_mhz));
      } else if (core.temp_c < config_.limit_c - kHysteresisC &&
                 current < spec.turbo_max_mhz) {
        msr_->WritePerfTargetMhz(core.cpu,
                                 std::min(spec.turbo_max_mhz, current + spec.step_mhz));
      }
    }
    return;
  }

  // Global RAPL mode: the hottest core dictates the package limit.
  Celsius max_temp = 0.0;
  for (const CoreTelemetry& core : sample.cores) {
    max_temp = std::max(max_temp, core.temp_c);
  }
  if (max_temp > config_.limit_c) {
    rapl_limit_w_ = std::max(spec.rapl_min_w, rapl_limit_w_ - kRaplStepW);
    msr_->WriteRaplLimitW(rapl_limit_w_);
  } else if (max_temp < config_.limit_c - kHysteresisC &&
             rapl_limit_w_ < spec.rapl_max_w) {
    rapl_limit_w_ = std::min(spec.rapl_max_w, rapl_limit_w_ + kRaplStepW);
    msr_->WriteRaplLimitW(rapl_limit_w_);
  }
}

}  // namespace papd
