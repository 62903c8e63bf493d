// SIMD kernels for the Package::Tick hot passes.
//
// The per-core passes of the tick engine — the effective-frequency clamp
// (turbo ladder / AVX cap / RAPL ceiling / PROCHOT), the voltage-memo +
// dynamic-power evaluation, and the hardware-counter accumulation — are
// kernels operating on the flat CoreArray vectors.  (The C0/AVX census runs
// only when the control plane changes, so it is one scalar loop in
// Package.)  Every-tick Package recomputes the clamp and power passes only
// when their inputs moved; the counters run every tick.  Two
// implementations exist behind one function-pointer table:
//
//   kScalarKernels        the bit-exact reference: literal ports of the
//                         original Package::Tick loops (always built);
//   kAvx2Kernels          4-lane AVX2 intrinsics, built when the PAPD_SIMD
//                         CMake option is ON and the compiler takes -mavx2.
//
// Dispatch is at runtime: ActiveKernels() probes the CPU once (plus a
// PAPD_SIMD=scalar environment override and a test-forcing hook) and every
// Package constructed afterwards uses the chosen table.
//
// Bit-identity contract: the AVX2 kernels perform the *same per-lane
// operation sequence* as the scalar reference — same association order,
// division where the scalar path divides, min/max via vminpd/vmaxpd (exact),
// and no FMA contraction (the AVX2 translation unit is compiled with -mavx2
// only, never -mfma).  Cross-lane reductions that would reassociate floating
// point (the package-power total) stay in Package::Tick as a scalar
// index-order sum over the per-core power vector.  The contract is pinned by
// the FNV-1a golden checksums in tests/soa_equivalence_test.cc, which run
// under both kernel tables.

#ifndef SRC_CPUSIM_SIMD_TICK_KERNELS_H_
#define SRC_CPUSIM_SIMD_TICK_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/units.h"
#include "src/cpusim/power_model.h"
#include "src/specsim/core_work.h"

namespace papd {
namespace simd {

// Inputs of the clamp kernel that are uniform across lanes this tick.
struct ClampParams {
  Mhz turbo_limit{0.0};   // Turbo ladder limit at this tick's active count.
  Mhz avx_cap{0.0};       // AVX frequency cap at this tick's AVX census.
  Mhz rapl_ceiling{0.0};  // Current RAPL controller ceiling (if rapl_on).
  Mhz min_mhz{0.0};       // Platform frequency floor (and PROCHOT target).
  double tj_max_c = 0.0;  // PROCHOT threshold in degrees C.
  bool rapl_on = false;
};

// Effective-frequency clamp: for every online lane,
//   f = max(min(requested, turbo, [rapl], [avx]), floor), PROCHOT -> floor.
// Offline lanes are skipped — their effective_mhz was pinned to zero when
// they went offline and the tick passes leave their result lanes untouched.
using ClampFn = void (*)(const Mhz* requested_mhz, const uint8_t* online,
                         const uint8_t* avx_lane, const double* temps_c,
                         const ClampParams& p, Mhz* effective_mhz, size_t n);

// Voltage-curve memo refresh + per-core power evaluation for online lanes;
// returns the busy-core count (busy_fraction > 0.05 among online lanes).
// The memo (volts_cache_mhz/volts_cache_v) is consulted vector-wide; misses
// (effective frequency changed since the memo was filled) fall back to the
// model's piecewise-linear VoltsAt per missing lane.  Offline lanes keep the
// constant deep-C-state power written at the online->offline transition.
using PowerFn = int (*)(const Mhz* effective_mhz, const WorkSlice* slices,
                        const uint8_t* online, const PowerModel& model,
                        Mhz* volts_cache_mhz, Volts* volts_cache_v,
                        Watts* power_w, size_t n);

// Hardware-counter accumulation over ALL lanes (offline lanes advance with
// busy == 0 and their constant offline power, exactly as the scalar tick
// always has): APERF/MPERF cycles, retired instructions, per-core energy.
using CountersFn = void (*)(const Mhz* effective_mhz, const WorkSlice* slices,
                            const Watts* power_w, Mhz tsc_mhz, Seconds dt,
                            double* aperf_cycles, double* mperf_cycles,
                            double* instructions_retired, Joules* energy_j,
                            size_t n);

struct TickKernels {
  const char* name;  // "scalar" or "avx2".
  ClampFn clamp;
  PowerFn power;
  CountersFn counters;
};

// The bit-exact reference implementation; always available.
extern const TickKernels kScalarKernels;

// True when the AVX2 kernel TU was compiled in (PAPD_SIMD=ON + -mavx2).
bool Avx2CompiledIn();
// True when the AVX2 kernels are compiled in AND this CPU supports AVX2.
bool Avx2Available();

// The kernel table new Packages should use: the forced table if a test or
// bench forced one, else AVX2 when available (unless the PAPD_SIMD=scalar
// environment override is set), else scalar.
const TickKernels& ActiveKernels();

// Test/bench hook: force "scalar", force "avx2", or restore automatic
// dispatch with nullptr or "auto".  Affects Packages constructed afterwards.
// Returns false (and forces nothing) if the named table is unavailable.
bool ForceKernelsForTest(const char* name_or_null);

}  // namespace simd
}  // namespace papd

#endif  // SRC_CPUSIM_SIMD_TICK_KERNELS_H_
