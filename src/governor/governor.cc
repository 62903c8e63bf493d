#include "src/governor/governor.h"

#include <algorithm>
#include <cmath>

namespace papd {
namespace {

// Ondemand: utilization at which the request jumps straight to max.
constexpr double kOndemandUpThreshold = 0.80;
// Ondemand: proportional target = util * max / this factor, i.e. keep some
// headroom so bursts don't immediately saturate.
constexpr double kOndemandHeadroom = 0.80;
// Conservative: step up at or above, down at or below these utilizations.
constexpr double kConservativeUpThreshold = 0.80;
constexpr double kConservativeDownThreshold = 0.20;
// Conservative: step per decision as a fraction of the frequency range.
constexpr double kConservativeFreqStep = 0.05;

Mhz Quantize(Mhz mhz, const GovernorLimits& limits) {
  const double steps = std::round((mhz - limits.min_mhz) / limits.step_mhz);
  return std::clamp(limits.min_mhz + steps * limits.step_mhz, limits.min_mhz, limits.max_mhz);
}

}  // namespace

Mhz PerformanceGovernor::Decide(double utilization, Mhz current_mhz) {
  (void)utilization;
  (void)current_mhz;
  return limits_.max_mhz;
}

Mhz PowersaveGovernor::Decide(double utilization, Mhz current_mhz) {
  (void)utilization;
  (void)current_mhz;
  return limits_.min_mhz;
}

Mhz UserspaceGovernor::Decide(double utilization, Mhz current_mhz) {
  (void)utilization;
  (void)current_mhz;
  return Quantize(target_mhz_, limits_);
}

Mhz OndemandGovernor::Decide(double utilization, Mhz current_mhz) {
  (void)current_mhz;
  if (utilization >= kOndemandUpThreshold) {
    return limits_.max_mhz;
  }
  return Quantize(utilization * limits_.max_mhz / kOndemandHeadroom, limits_);
}

Mhz ConservativeGovernor::Decide(double utilization, Mhz current_mhz) {
  const Mhz step =
      std::max(limits_.step_mhz, kConservativeFreqStep * (limits_.max_mhz - limits_.min_mhz));
  if (utilization >= kConservativeUpThreshold) {
    return Quantize(current_mhz + step, limits_);
  }
  if (utilization <= kConservativeDownThreshold) {
    return Quantize(current_mhz - step, limits_);
  }
  return Quantize(current_mhz, limits_);
}

const char* GovernorKindName(GovernorKind kind) {
  switch (kind) {
    case GovernorKind::kPerformance:
      return "performance";
    case GovernorKind::kPowersave:
      return "powersave";
    case GovernorKind::kUserspace:
      return "userspace";
    case GovernorKind::kOndemand:
      return "ondemand";
    case GovernorKind::kConservative:
      return "conservative";
  }
  return "?";
}

std::unique_ptr<FreqGovernor> MakeGovernor(GovernorKind kind, GovernorLimits limits) {
  switch (kind) {
    case GovernorKind::kPerformance:
      return std::make_unique<PerformanceGovernor>(limits);
    case GovernorKind::kPowersave:
      return std::make_unique<PowersaveGovernor>(limits);
    case GovernorKind::kUserspace:
      return std::make_unique<UserspaceGovernor>(limits, limits.max_mhz);
    case GovernorKind::kOndemand:
      return std::make_unique<OndemandGovernor>(limits);
    case GovernorKind::kConservative:
      return std::make_unique<ConservativeGovernor>(limits);
  }
  return nullptr;
}

}  // namespace papd
