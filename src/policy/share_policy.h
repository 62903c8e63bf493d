// Common interface of every per-app frequency policy the daemon runs: the
// proportional-share policies, the priority policy, the monitoring-only
// policy of kRaplOnly and kStatic (src/policy/policy_registry.cc), custom
// policies (examples/custom_policy.cpp) and the cpufreq governors
// (StartGovernor in src/governor/governor.h).
//
// Paper Section 5.2: every policy is implemented with three functions — an
// *initial distribution* run when applications start, a *redistribution*
// run every control period (for the share policies, applying min-funding
// revocation to skip saturated cores), and a *translation* that converts
// resource units into programmable frequencies.  ShareResource captures
// the first two; translation to quantized per-core (or three-slot, on
// Ryzen) frequencies is done by the daemon's frequency programmer,
// identically for all policies.
//
// Every implementation consumes only telemetry a real platform provides
// (package watts, per-core active MHz / IPS / watts) and produces per-app
// frequency targets.

#ifndef SRC_POLICY_SHARE_POLICY_H_
#define SRC_POLICY_SHARE_POLICY_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/msr/turbostat.h"
#include "src/policy/app_model.h"

namespace papd {

class ShareResource {
 public:
  virtual ~ShareResource() = default;

  virtual std::string Name() const = 0;

  // Computes initial per-app frequency targets (same order as `apps`).
  virtual std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                               Watts limit_w) = 0;

  // One control iteration: given fresh telemetry, returns updated per-app
  // frequency targets.
  virtual std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps,
                                        const TelemetrySample& sample, Watts limit_w) = 0;
};

// The paper's naive power-to-frequency conversion factor (Section 5.2):
//   alpha          = PowerDelta / MaxPower
//   FrequencyDelta = alpha * MaxFrequency * NumAvailableCores
// Positive when there is headroom (power below the limit).
inline double AlphaOf(Watts power_delta_w, Watts max_power_w) {
  return power_delta_w / max_power_w;
}

// Control deadband: redistribution is skipped while package power is within
// this distance of the limit, which keeps the daemon from dithering between
// adjacent P-states every period.
inline constexpr Watts kPowerToleranceW{0.75};

}  // namespace papd

#endif  // SRC_POLICY_SHARE_POLICY_H_
