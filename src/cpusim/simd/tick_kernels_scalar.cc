// Scalar reference tick kernels: literal ports of the original
// Package::Tick loops.  These define the bit-exact semantics the AVX2
// kernels must reproduce (tests/soa_equivalence_test.cc pins both against
// the same FNV-1a golden checksums).

#include <algorithm>

#include "src/cpusim/simd/tick_kernels.h"

namespace papd {
namespace simd {
namespace {

// PAPD_HOT
void ClampScalar(const Mhz* requested_mhz, const uint8_t* online,
                 const uint8_t* avx_lane, const double* temps_c,
                 const ClampParams& p, Mhz* effective_mhz, size_t n) {
  for (size_t i = 0; i < n; i++) {
    if (!online[i]) {
      // Pinned to zero at the online->offline transition; stays untouched.
      continue;
    }
    Mhz f{std::min(requested_mhz[i], p.turbo_limit)};
    if (p.rapl_on) {
      f = std::min(f, p.rapl_ceiling);
    }
    if (avx_lane[i]) {
      f = std::min(f, p.avx_cap);
    }
    if (temps_c[i] >= p.tj_max_c) {
      // PROCHOT: the core hard-throttles to the floor until it cools.
      f = p.min_mhz;
    }
    effective_mhz[i] = std::max(f, p.min_mhz);
  }
}

// PAPD_HOT
int PowerScalar(const Mhz* effective_mhz, const WorkSlice* slices,
                const uint8_t* online, const PowerModel& model,
                Mhz* volts_cache_mhz, Volts* volts_cache_v, Watts* power_w,
                size_t n) {
  int busy_cores = 0;
  for (size_t i = 0; i < n; i++) {
    if (!online[i]) {
      // power_w holds the constant deep-C-state draw written at the
      // online->offline transition.
      continue;
    }
    const Mhz f{effective_mhz[i]};
    if (f != volts_cache_mhz[i]) {
      volts_cache_mhz[i] = f;
      volts_cache_v[i] = model.VoltsAt(f);
    }
    power_w[i] = model.CorePowerW(f, slices[i].busy_fraction, slices[i].activity,
                                  volts_cache_v[i]);
    if (slices[i].busy_fraction > 0.05) {
      busy_cores++;
    }
  }
  return busy_cores;
}

// PAPD_HOT
void CountersScalar(const Mhz* effective_mhz, const WorkSlice* slices,
                    const Watts* power_w, Mhz tsc_mhz, Seconds dt,
                    double* aperf_cycles, double* mperf_cycles,
                    double* instructions_retired, Joules* energy_j, size_t n) {
  for (size_t i = 0; i < n; i++) {
    // Same expression order as the original fused pass, so counter values
    // stay bit-identical.
    const double busy = slices[i].busy_fraction;
    aperf_cycles[i] += effective_mhz[i] * kHzPerMhz * dt * busy;
    mperf_cycles[i] += tsc_mhz * kHzPerMhz * dt * busy;
    instructions_retired[i] += slices[i].instructions;
    energy_j[i] += power_w[i] * dt;
  }
}

}  // namespace

const TickKernels kScalarKernels = {"scalar", &ClampScalar, &PowerScalar,
                                    &CountersScalar};

}  // namespace simd
}  // namespace papd
