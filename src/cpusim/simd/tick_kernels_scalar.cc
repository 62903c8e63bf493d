// Scalar reference tick kernels: the lane loops of lane_steps.h over all n
// lanes.  These define the bit-exact semantics the AVX2 kernels must
// reproduce (tests/soa_equivalence_test.cc pins both against the same FNV-1a
// golden checksums and compares them lane by lane).

#include "src/cpusim/simd/lane_steps.h"
#include "src/cpusim/simd/tick_kernels.h"

namespace papd {
namespace simd {
namespace {

// PAPD_HOT
void ClampScalar(const Mhz* requested_mhz, const uint8_t* online,
                 const uint8_t* avx_lane, const double* temps_c,
                 const ClampParams& p, Mhz* effective_mhz, size_t n) {
  ClampLanes(0, n, requested_mhz, online, avx_lane, temps_c, p, effective_mhz);
}

// PAPD_HOT
PriceResult PriceScalar(const Mhz* effective_mhz, const WorkSlice* slices,
                        const uint8_t* online, const PowerModel& model, bool all,
                        const PricedLanes& priced, Watts* power_w, size_t n) {
  PriceResult r;
  PriceLanes(0, n, effective_mhz, slices, online, model, all, priced, power_w, &r);
  return r;
}

// PAPD_HOT
Celsius SettleScalar(const Mhz* effective_mhz, const WorkSlice* slices,
                     const Watts* power_w, Mhz tsc_mhz, Seconds dt,
                     const CounterLanes& counters, const RelaxLanes& thermal, size_t n) {
  return SettleLanes(0, n, effective_mhz, slices, power_w, tsc_mhz, dt, counters, thermal,
                     thermal.floor_c);
}

}  // namespace

const TickKernels kScalarKernels = {"scalar", &ClampScalar, &PriceScalar, &SettleScalar};

}  // namespace simd
}  // namespace papd
