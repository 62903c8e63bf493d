// First-order RC thermal model.
//
// Paper Section 2.2 lists Linux's thermald among the mechanisms usable for
// per-application power control: thermal limits can be enforced with
// P-states, RAPL, C-states or clock gating, and "as these mechanisms can be
// both global (RAPL) or local (clock cycle gating, DVFS), they may be
// helpful in building a per-application power delivery system."  To
// exercise that path the package carries a standard lumped RC model:
//
//   dT_i/dt = (T_amb + R * (P_i + spread) - T_i) / tau
//
// per core, where `spread` couples a share of the other cores' and the
// uncore's heat through the heat spreader.  Steady state is
// T = T_amb + R * P_effective; tau sets how fast throttling must react.

#ifndef SRC_CPUSIM_THERMAL_H_
#define SRC_CPUSIM_THERMAL_H_

#include <vector>

#include "src/common/units.h"
#include "src/platform/platform_spec.h"

namespace papd {

using Celsius = double;

// Parameter semantics (fields of PlatformThermal):
//   ambient_c        — heatsink/ambient baseline temperature;
//   r_core_c_per_w   — junction-to-ambient resistance of one core's stack;
//   spread_fraction  — fraction of the *other* heat (remaining cores +
//                      uncore) coupling into each core via the spreader;
//   tau_s            — core thermal time constant;
//   tj_max_c         — junction limit (PROCHOT threshold).
using ThermalParams = PlatformThermal;

// One tick of first-order relaxation toward the steady-state target,
// T += alpha * (target - T).  Every relax path (ThermalModel::Update and both
// tick-kernel tables) evaluates exactly this expression.
inline Celsius RelaxedTemp(Celsius temp, Celsius target, double alpha) {
  return temp + alpha * (target - temp);
}

// What ThermalModel hands the tick engine's settle kernel, which relaxes
// every core in the same pass that advances the hardware counters.
struct RelaxLanes {
  const Celsius* targets_c;  // Per-core steady-state targets.
  Celsius* temps_c;          // Per-core temperatures, relaxed in place.
  double alpha;              // This tick's coefficient, 1 - exp(-dt / tau).
  Celsius floor_c;           // Lower bound of the hottest-core result.
};

class ThermalModel {
 public:
  ThermalModel(ThermalParams params, int num_cores);

  // Derives each core's steady-state temperature from per-core and uncore
  // power.  The targets hold until the next call, so a caller whose power
  // did not change since the last call may skip it and keep relaxing.
  void SetPower(const std::vector<Watts>& core_w, Watts uncore_w);
  // One tick under the given power: SetPower, then every core relaxes one
  // tick of length dt toward its target (RelaxedTemp).
  void Update(const std::vector<Watts>& core_w, Watts uncore_w, Seconds dt);

  // The tick engine's relax step: the settle kernel relaxes the arrays
  // handed out here and passes the hottest core back to SetHottest.
  RelaxLanes LanesForTick(Seconds dt) {
    return RelaxLanes{targets_.data(), temps_.data(), Alpha(dt), params_.ambient_c};
  }
  void SetHottest(Celsius hottest) { max_temp_c_ = hottest; }

  // Advances `ticks` ticks of length `dt` under *constant* power in closed
  // form: each core relaxes toward its steady temperature with the per-tick
  // factor (1 - alpha) compounded, so the cost is one pass instead of
  // `ticks` passes.  Equivalent to calling Update() `ticks` times up to
  // floating-point ulps (pow vs repeated multiply); callers that need
  // bit-pinned temperatures must keep ticking per step.
  void UpdateSteady(const std::vector<Watts>& core_w, Watts uncore_w, Seconds dt, int ticks);

  Celsius core_temp_c(int core) const { return temps_[static_cast<size_t>(core)]; }
  // Flat per-core temperature vector; the tick engine's SIMD clamp kernel
  // streams it for the PROCHOT comparison.
  const std::vector<Celsius>& temps_c() const { return temps_; }
  // Hottest core (never below ambient), tracked as temperatures advance.
  Celsius max_temp_c() const { return max_temp_c_; }
  const ThermalParams& params() const { return params_; }

  // True if any core is at/above the junction limit.
  bool OverLimit() const { return max_temp_c() >= params_.tj_max_c; }

 private:
  // RC coefficient for tick length dt, memoized for the (fixed) tick.
  double Alpha(Seconds dt);

  ThermalParams params_;
  std::vector<Celsius> temps_;
  // Per-core steady-state temperature under the power of the last SetPower.
  std::vector<Celsius> targets_;
  Celsius max_temp_c_;
  Seconds alpha_dt_{-1.0};
  double alpha_ = 0.0;
};

}  // namespace papd

#endif  // SRC_CPUSIM_THERMAL_H_
