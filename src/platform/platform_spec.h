// Platform descriptors for the two processors the paper evaluates
// (Table 1): Intel Xeon SP 4114 "Skylake" and AMD Ryzen 1700X.
//
// A PlatformSpec captures everything the simulator and the policies need to
// know about a part: the programmable frequency grid, the opportunistic
// (turbo) frequency ladder, the AVX frequency caps, the voltage curve, the
// analytic power-model coefficients, and the feature flags that decide which
// policies are implementable (per-core power telemetry, RAPL limiting, the
// Ryzen three-simultaneous-P-state restriction).

#ifndef SRC_PLATFORM_PLATFORM_SPEC_H_
#define SRC_PLATFORM_PLATFORM_SPEC_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/platform/pstate.h"
#include "src/platform/voltage_curve.h"

namespace papd {

// One rung of the opportunistic-scaling ladder: with at most
// `max_active_cores` cores in C0, frequencies up to `mhz` are reachable.
// Entries are sorted by increasing max_active_cores; the last entry covers
// all cores and equals the all-core turbo limit.
struct TurboStep {
  int max_active_cores;
  Mhz mhz;

  bool operator==(const TurboStep&) const = default;
};

// Coefficients of the analytic power model (see src/cpusim/power_model.h):
//   P_core = leakage(V) + ceff * activity * V^2 * f_ghz * busy
//            + clock_gate_w * (1 - busy)            [while in C0]
//   P_core = cstate_idle_w                          [while offline / deep C]
//   P_uncore = uncore_base_w + uncore_per_active_w * active_cores
struct PowerModelParams {
  // Effective switched capacitance in W / (V^2 * GHz) for activity 1.0.
  double ceff_w_per_v2ghz;
  // Leakage at leak_ref_volts; scales with (V / leak_ref_volts)^2.
  Watts leak_ref_w;
  Volts leak_ref_volts;
  // Residual clock/idle power of an online but idle core.
  Watts clock_gate_w;
  // Deep C-state (offlined core) power.
  Watts cstate_idle_w;
  Watts uncore_base_w;
  Watts uncore_per_active_w;

  bool operator==(const PowerModelParams&) const = default;
};

// Lumped RC thermal parameters (see src/cpusim/thermal.h).
struct PlatformThermal {
  double ambient_c = 40.0;
  double r_core_c_per_w = 2.2;
  double spread_fraction = 0.08;
  Seconds tau_s{3.0};
  double tj_max_c = 95.0;

  bool operator==(const PlatformThermal&) const = default;
};

struct PlatformSpec {
  std::string name;
  int num_cores;

  // Programmable grid (non-turbo region).
  Mhz min_mhz;
  Mhz base_max_mhz;
  Mhz step_mhz;
  // Absolute maximum (single-core turbo / XFR).
  Mhz turbo_max_mhz;
  std::vector<TurboStep> turbo_ladder;

  // AVX-heavy code is limited to lower frequencies (paper Figures 1-2).
  // Two-level model: a cap with few AVX-active cores and a lower cap when
  // more than avx_light_cores cores run AVX code simultaneously.
  Mhz avx_max_mhz_light;
  Mhz avx_max_mhz_heavy;
  int avx_light_cores;

  Watts tdp_w;
  // RAPL-programmable limit range (Skylake: 20-85 W).
  Watts rapl_min_w;
  Watts rapl_max_w;

  // Feature flags (paper Table 1).
  bool has_rapl_limit;       // Hardware power capping available.
  bool has_per_core_power;   // Per-core energy telemetry (Ryzen only).
  // Maximum number of distinct simultaneous frequencies; 0 = unlimited
  // (Skylake), 3 on Ryzen.
  int max_simultaneous_pstates;

  VoltageCurve voltage;
  PowerModelParams power;

  // TSC / MPERF reference frequency.
  Mhz tsc_mhz;

  PlatformThermal thermal;

  // The grid covering min..turbo_max (software can always request turbo
  // frequencies; hardware grants them only when the ladder allows).
  PStateTable PStates() const { return PStateTable(min_mhz, turbo_max_mhz, step_mhz); }

  // Highest frequency grantable with `active_cores` cores in C0.
  Mhz TurboLimitMhz(int active_cores) const;

  // AVX frequency cap given the number of AVX-active cores.
  Mhz AvxCapMhz(int avx_active_cores) const;

  // Field-by-field value equality: two specs are equal only when every
  // field above is, so a modified preset never compares equal to its
  // original (the standalone-baseline cache and the replica classes rely on
  // this).
  bool operator==(const PlatformSpec&) const = default;
};

// Intel Xeon SP 4114 (one socket of the paper's two-socket machine):
// 10 cores, 0.8-2.2 GHz base grid in 100 MHz steps, 3.0 GHz max turbo,
// RAPL capping 20-85 W, no per-core power telemetry.
PlatformSpec SkylakeXeon4114();

// AMD Ryzen 1700X: 8 cores, 0.8-3.4 GHz grid in 25 MHz steps, 3.8 GHz XFR,
// per-core power telemetry, no RAPL limiting, only 3 simultaneous P-states.
PlatformSpec Ryzen1700X();

// Projected 64-core server part extrapolating the Skylake model to modern
// core counts (Ice Lake-SP / Sapphire Rapids class): deeper turbo ladder,
// wider RAPL range, larger uncore.  Not from the paper's Table 1; used for
// the many-core and rack scaling studies (EXPERIMENTS.md A10).
PlatformSpec ManyCoreXeon64();

// Projected 128-core chiplet server part (EPYC class): 25 MHz grid,
// per-core power telemetry, package-level power capping, big IO-die uncore.
PlatformSpec ManyCoreEpyc128();

}  // namespace papd

#endif  // SRC_PLATFORM_PLATFORM_SPEC_H_
