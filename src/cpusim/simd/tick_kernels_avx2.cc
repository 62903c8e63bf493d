// AVX2 tick kernels: 4 double lanes per iteration over the flat CoreArray
// vectors; the last n mod 4 lanes run the scalar lane loops of
// lane_steps.h inline.
//
// Bit-identity with tick_kernels_scalar.cc is a hard contract (the FNV-1a
// goldens in tests/soa_equivalence_test.cc run under both tables):
//   - every per-lane floating-point expression uses the same association
//     order as the scalar reference, with vdivpd where the scalar path
//     divides (MhzToGhz, the leakage voltage ratio);
//   - vminpd/vmaxpd are exact and match std::min/std::max on the positive,
//     NaN-free values that flow here;
//   - this translation unit is compiled with -mavx2 ONLY — never -mfma —
//     so no mul+add pair is contracted into a differently rounded fused op;
//   - cross-lane reductions that would reassociate floating point are not
//     performed here (Package sums the power vector in scalar index order);
//     the busy-core count is integral and the hottest temperature is a
//     maximum, so both are exact in any lane order.  The running maximum is
//     vmaxpd(t, hottest), which keeps `hottest` when t is NaN, as std::max
//     does in the scalar fold.
//
// The byte flags (online, the per-lane AVX flag) are strictly 0/1, which
// MaskFromBytes exploits (0/1 -> 0/-1 via integer negate).  The Quantity<Tag>
// vectors are loaded through double* — the strong types are single-double
// standard-layout wrappers (static_asserted below), and both sides of every
// access read/write the underlying double.

#if defined(PAPD_SIMD_AVX2)

#include <immintrin.h>

#include <type_traits>

#include "src/cpusim/simd/lane_steps.h"
#include "src/cpusim/simd/tick_kernels.h"

namespace papd {
namespace simd {

// Defined below; the extern declaration gives the const table external
// linkage so the dispatcher in tick_kernels.cc can reference it.
extern const TickKernels kAvx2Kernels;

namespace {

static_assert(sizeof(Mhz) == sizeof(double) && std::is_standard_layout_v<Mhz>,
              "SIMD kernels reinterpret Quantity vectors as double arrays");
static_assert(sizeof(Volts) == sizeof(double) && sizeof(Watts) == sizeof(double) &&
                  sizeof(Joules) == sizeof(double),
              "SIMD kernels reinterpret Quantity vectors as double arrays");
static_assert(sizeof(WorkSlice) == 4 * sizeof(double) &&
                  std::is_standard_layout_v<WorkSlice>,
              "WorkSlice field gathers assume a plain 4-double layout");

// 4 flag bytes (each 0 or 1) -> 4 all-zeros/all-ones double lanes.
inline __m256d MaskFromBytes(const uint8_t* b) {
  const uint32_t packed = static_cast<uint32_t>(b[0]) |
                          (static_cast<uint32_t>(b[1]) << 8) |
                          (static_cast<uint32_t>(b[2]) << 16) |
                          (static_cast<uint32_t>(b[3]) << 24);
  const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(packed));
  const __m256i lanes = _mm256_cvtepu8_epi64(bytes);
  return _mm256_castsi256_pd(_mm256_sub_epi64(_mm256_setzero_si256(), lanes));
}

inline __m256d GatherBusy(const WorkSlice* s) {
  return _mm256_setr_pd(s[0].busy_fraction, s[1].busy_fraction,
                        s[2].busy_fraction, s[3].busy_fraction);
}

inline __m256d GatherActivity(const WorkSlice* s) {
  return _mm256_setr_pd(s[0].activity, s[1].activity, s[2].activity,
                        s[3].activity);
}

inline __m256d GatherInstructions(const WorkSlice* s) {
  return _mm256_setr_pd(s[0].instructions, s[1].instructions, s[2].instructions,
                        s[3].instructions);
}

// PAPD_HOT
void ClampAvx2(const Mhz* requested_mhz, const uint8_t* online,
               const uint8_t* avx_lane, const double* temps_c,
               const ClampParams& p, Mhz* effective_mhz, size_t n) {
  const __m256d turbo = _mm256_set1_pd(p.turbo_limit.value());
  const __m256d avx_cap = _mm256_set1_pd(p.avx_cap.value());
  const __m256d rapl = _mm256_set1_pd(p.rapl_ceiling.value());
  const __m256d floor = _mm256_set1_pd(p.min_mhz.value());
  const __m256d tj = _mm256_set1_pd(p.tj_max_c);
  const double* req = reinterpret_cast<const double*>(requested_mhz);
  double* eff = reinterpret_cast<double*>(effective_mhz);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d f = _mm256_min_pd(_mm256_loadu_pd(req + i), turbo);
    if (p.rapl_on) {
      f = _mm256_min_pd(f, rapl);
    }
    const __m256d avxm = MaskFromBytes(avx_lane + i);
    f = _mm256_blendv_pd(f, _mm256_min_pd(f, avx_cap), avxm);
    const __m256d hot =
        _mm256_cmp_pd(_mm256_loadu_pd(temps_c + i), tj, _CMP_GE_OQ);
    f = _mm256_blendv_pd(f, floor, hot);
    f = _mm256_max_pd(f, floor);
    // Offline lanes keep their pinned zero: blend the old value back.
    const __m256d onm = MaskFromBytes(online + i);
    const __m256d old = _mm256_loadu_pd(eff + i);
    _mm256_storeu_pd(eff + i, _mm256_blendv_pd(old, f, onm));
  }
  ClampLanes(i, n, requested_mhz, online, avx_lane, temps_c, p, effective_mhz);
}

// PAPD_HOT
PriceResult PriceAvx2(const Mhz* effective_mhz, const WorkSlice* slices,
                      const uint8_t* online, const PowerModel& model, bool all,
                      const PricedLanes& priced, Watts* power_w, size_t n) {
  const PowerModelParams& pm = model.params();
  const __m256d leak_ref_w = _mm256_set1_pd(pm.leak_ref_w.value());
  const __m256d leak_ref_v = _mm256_set1_pd(pm.leak_ref_volts.value());
  const __m256d ceff = _mm256_set1_pd(pm.ceff_w_per_v2ghz);
  const __m256d gate_w = _mm256_set1_pd(pm.clock_gate_w.value());
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d ghz_div = _mm256_set1_pd(kMhzPerGhz);
  const __m256d busy_thresh = _mm256_set1_pd(0.05);
  const __m256d all_lanes = _mm256_castsi256_pd(_mm256_set1_epi64x(all ? -1 : 0));
  const double* eff = reinterpret_cast<const double*>(effective_mhz);
  const double* pf = reinterpret_cast<const double*>(priced.mhz);
  const double* pv = reinterpret_cast<const double*>(priced.volts);
  double* pw = reinterpret_cast<double*>(power_w);
  PriceResult r;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d onm = MaskFromBytes(online + i);
    const __m256d f = _mm256_loadu_pd(eff + i);
    const __m256d busy = GatherBusy(slices + i);
    const __m256d act = GatherActivity(slices + i);
    const __m256d isbusy =
        _mm256_and_pd(_mm256_cmp_pd(busy, busy_thresh, _CMP_GT_OQ), onm);
    r.busy_cores += __builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(isbusy)));
    // A lane moved when any priced input differs (!= is unordered-or-not-
    // equal, like the scalar comparison) or every lane must price.
    const __m256d freq_moved = _mm256_cmp_pd(f, _mm256_loadu_pd(pf + i), _CMP_NEQ_UQ);
    const __m256d input_moved = _mm256_or_pd(
        _mm256_cmp_pd(busy, _mm256_loadu_pd(priced.busy + i), _CMP_NEQ_UQ),
        _mm256_cmp_pd(act, _mm256_loadu_pd(priced.activity + i), _CMP_NEQ_UQ));
    const __m256d moved = _mm256_and_pd(
        _mm256_or_pd(all_lanes, _mm256_or_pd(freq_moved, input_moved)), onm);
    if (_mm256_movemask_pd(moved) == 0) {
      continue;
    }
    r.moved = true;
    // Voltage-memo refresh: online lanes whose effective frequency moved
    // since the memo was filled re-run the piecewise-linear lookup scalar
    // side (P-states change every ~1000 ticks, so misses are rare).
    const int miss_mask = _mm256_movemask_pd(_mm256_and_pd(freq_moved, onm));
    if (miss_mask != 0) {
      for (int l = 0; l < 4; ++l) {
        if (miss_mask & (1 << l)) {
          priced.mhz[i + l] = effective_mhz[i + l];
          priced.volts[i + l] = model.VoltsAt(effective_mhz[i + l]);
        }
      }
    }
    const __m256d v = _mm256_loadu_pd(pv + i);
    // leakage = (leak_ref_w * (v / v_ref)) * (v / v_ref)
    const __m256d vr = _mm256_div_pd(v, leak_ref_v);
    const __m256d leak = _mm256_mul_pd(_mm256_mul_pd(leak_ref_w, vr), vr);
    // dynamic = ((((ceff * act) * v) * v) * (f / 1000)) * busy — the scalar
    // expression's left-to-right association, with a true division for
    // MhzToGhz.
    __m256d dyn = _mm256_mul_pd(ceff, act);
    dyn = _mm256_mul_pd(dyn, v);
    dyn = _mm256_mul_pd(dyn, v);
    dyn = _mm256_mul_pd(dyn, _mm256_div_pd(f, ghz_div));
    dyn = _mm256_mul_pd(dyn, busy);
    const __m256d gate = _mm256_mul_pd(gate_w, _mm256_sub_pd(one, busy));
    const __m256d p = _mm256_add_pd(_mm256_add_pd(leak, dyn), gate);
    // Unmoved and offline lanes keep their power and priced inputs.
    _mm256_storeu_pd(pw + i, _mm256_blendv_pd(_mm256_loadu_pd(pw + i), p, moved));
    _mm256_storeu_pd(priced.busy + i,
                     _mm256_blendv_pd(_mm256_loadu_pd(priced.busy + i), busy, moved));
    _mm256_storeu_pd(priced.activity + i,
                     _mm256_blendv_pd(_mm256_loadu_pd(priced.activity + i), act, moved));
  }
  PriceLanes(i, n, effective_mhz, slices, online, model, all, priced, power_w, &r);
  return r;
}

// PAPD_HOT
Celsius SettleAvx2(const Mhz* effective_mhz, const WorkSlice* slices,
                   const Watts* power_w, Mhz tsc_mhz, Seconds dt,
                   const CounterLanes& counters, const RelaxLanes& thermal, size_t n) {
  const __m256d khz = _mm256_set1_pd(kHzPerMhz);
  const __m256d dts = _mm256_set1_pd(dt.value());
  // The MPERF step is lane-invariant; precompute it with the scalar
  // reference's association: ((tsc * kHz) * dt).
  const __m256d mstep = _mm256_set1_pd(tsc_mhz * kHzPerMhz * dt);
  const __m256d alpha = _mm256_set1_pd(thermal.alpha);
  const double* eff = reinterpret_cast<const double*>(effective_mhz);
  const double* pw = reinterpret_cast<const double*>(power_w);
  double* aperf = counters.aperf_cycles;
  double* mperf = counters.mperf_cycles;
  double* instr = counters.instructions_retired;
  double* ej = reinterpret_cast<double*>(counters.energy_j);
  const double* target = thermal.targets_c;
  double* temp = thermal.temps_c;
  __m256d hot4 = _mm256_set1_pd(thermal.floor_c);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d busy = GatherBusy(slices + i);
    // aperf += ((f * kHz) * dt) * busy
    const __m256d f = _mm256_loadu_pd(eff + i);
    const __m256d a =
        _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(f, khz), dts), busy);
    _mm256_storeu_pd(aperf + i, _mm256_add_pd(_mm256_loadu_pd(aperf + i), a));
    _mm256_storeu_pd(mperf + i,
                     _mm256_add_pd(_mm256_loadu_pd(mperf + i), _mm256_mul_pd(mstep, busy)));
    _mm256_storeu_pd(instr + i,
                     _mm256_add_pd(_mm256_loadu_pd(instr + i), GatherInstructions(slices + i)));
    _mm256_storeu_pd(ej + i, _mm256_add_pd(_mm256_loadu_pd(ej + i),
                                           _mm256_mul_pd(_mm256_loadu_pd(pw + i), dts)));
    // T += alpha * (target - T)
    const __m256d t = _mm256_loadu_pd(temp + i);
    const __m256d relaxed = _mm256_add_pd(
        t, _mm256_mul_pd(alpha, _mm256_sub_pd(_mm256_loadu_pd(target + i), t)));
    _mm256_storeu_pd(temp + i, relaxed);
    hot4 = _mm256_max_pd(relaxed, hot4);
  }
  alignas(32) double partial[4];
  _mm256_store_pd(partial, hot4);
  const Celsius hottest =
      std::max(std::max(partial[0], partial[1]), std::max(partial[2], partial[3]));
  return SettleLanes(i, n, effective_mhz, slices, power_w, tsc_mhz, dt, counters, thermal,
                     hottest);
}

}  // namespace

const TickKernels kAvx2Kernels = {"avx2", &ClampAvx2, &PriceAvx2, &SettleAvx2};

}  // namespace simd
}  // namespace papd

#endif  // PAPD_SIMD_AVX2
