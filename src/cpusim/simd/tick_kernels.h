// SIMD kernels for the Package::Tick hot passes.
//
// The per-core passes of the tick engine are kernels operating on the flat
// CoreArray vectors (the C0/AVX census runs only when the control plane
// changes, so it is one scalar loop in Package):
//
//   clamp    the effective-frequency clamp (turbo ladder / AVX cap / RAPL
//            ceiling / PROCHOT); every-tick Package reruns it only when its
//            inputs moved;
//   price    re-prices only the online lanes whose effective frequency,
//            busy fraction or activity moved since they were last priced
//            (all online lanes when the control epoch moved), and reports
//            whether any did plus the busy-core count;
//   settle   one pass per tick over every lane: advances APERF/MPERF,
//            retired instructions and per-core energy, relaxes each lane's
//            temperature toward its thermal target, and returns the hottest.
//
// Two implementations exist behind one function-pointer table:
//
//   kScalarKernels        the bit-exact reference (always built);
//   kAvx2Kernels          4-lane AVX2 intrinsics, built when the PAPD_SIMD
//                         CMake option is ON and the compiler takes -mavx2.
//                         Each AVX2 kernel handles its last n mod 4 lanes
//                         with the same inline lane loops the scalar table
//                         runs (lane_steps.h).
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
// point (the package-power total) stay in Package as a scalar index-order
// sum over the per-core power vector; the busy-core count is integral and
// the hottest temperature is a maximum, so both are exact in any lane order.
// The contract is pinned by the FNV-1a golden checksums in
// tests/soa_equivalence_test.cc, which run under both kernel tables, and by
// its lane-by-lane comparison of the two tables at every tail length.

#ifndef SRC_CPUSIM_SIMD_TICK_KERNELS_H_
#define SRC_CPUSIM_SIMD_TICK_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/units.h"
#include "src/cpusim/power_model.h"
#include "src/cpusim/thermal.h"
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

// What each lane was last priced at.  `mhz` is also the voltage memo's key
// (CoreArray::volts_cache_mhz) and `volts` its value.
struct PricedLanes {
  Mhz* mhz;
  Volts* volts;
  double* busy;
  double* activity;
};

struct PriceResult {
  bool moved = false;  // Some online lane re-priced.
  int busy_cores = 0;  // Online lanes with busy_fraction > 0.05, moved or not.
};

// Price: an online lane moved when `all` is set or when its effective
// frequency, busy fraction or activity differs from what it was last priced
// at.  A moved lane refreshes its voltage memo on a frequency miss, writes
// power_w = PowerModel::CorePowerW(...) and records its new priced inputs.
// An unmoved lane's inputs are bitwise the ones it was priced at, so
// re-pricing it would write the same bits: it is left alone.  Offline lanes
// keep the constant deep-C-state power written at the online->offline
// transition.
using PriceFn = PriceResult (*)(const Mhz* effective_mhz, const WorkSlice* slices,
                                const uint8_t* online, const PowerModel& model, bool all,
                                const PricedLanes& priced, Watts* power_w, size_t n);

// The hardware counters the settle kernel advances.
struct CounterLanes {
  double* aperf_cycles;
  double* mperf_cycles;
  double* instructions_retired;
  Joules* energy_j;
};

// Settle, over ALL lanes (offline lanes advance with busy == 0 and their
// constant offline power): APERF/MPERF cycles, retired instructions and
// per-core energy advance by one tick, then each lane's temperature relaxes
// one tick toward its target (RelaxedTemp).  Returns the hottest relaxed
// temperature, never below thermal.floor_c.
using SettleFn = Celsius (*)(const Mhz* effective_mhz, const WorkSlice* slices,
                             const Watts* power_w, Mhz tsc_mhz, Seconds dt,
                             const CounterLanes& counters, const RelaxLanes& thermal,
                             size_t n);

struct TickKernels {
  const char* name;  // "scalar" or "avx2".
  ClampFn clamp;
  PriceFn price;
  SettleFn settle;
};

// The bit-exact reference implementation; always available.
extern const TickKernels kScalarKernels;

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
