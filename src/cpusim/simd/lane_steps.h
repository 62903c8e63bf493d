// Scalar lane loops of the tick kernels.  The scalar table runs each over
// all n lanes; the AVX2 kernels run it over their last n mod 4 lanes.
// Keeping one copy of each loop is what keeps the two tables' tails from
// drifting.  Inline and FMA-free (the AVX2 translation unit is built without
// -mfma), so each step rounds identically in both translation units.

#ifndef SRC_CPUSIM_SIMD_LANE_STEPS_H_
#define SRC_CPUSIM_SIMD_LANE_STEPS_H_

#include <algorithm>

#include "src/cpusim/simd/tick_kernels.h"

namespace papd {
namespace simd {

// Clamp over lanes [begin, end).  Offline lanes were pinned to zero at the
// online->offline transition and stay untouched.
inline void ClampLanes(size_t begin, size_t end, const Mhz* requested_mhz,
                       const uint8_t* online, const uint8_t* avx_lane, const double* temps_c,
                       const ClampParams& p, Mhz* effective_mhz) {
  for (size_t i = begin; i < end; i++) {
    if (!online[i]) {
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

// Price over lanes [begin, end), accumulating into *r.  Offline lanes keep
// the constant deep-C-state power written at the online->offline
// transition.
inline void PriceLanes(size_t begin, size_t end, const Mhz* effective_mhz,
                       const WorkSlice* slices, const uint8_t* online, const PowerModel& model,
                       bool all, const PricedLanes& priced, Watts* power_w, PriceResult* r) {
  for (size_t i = begin; i < end; i++) {
    if (!online[i]) {
      continue;
    }
    const Mhz f{effective_mhz[i]};
    const double busy = slices[i].busy_fraction;
    const double activity = slices[i].activity;
    if (busy > 0.05) {
      r->busy_cores++;
    }
    const bool freq_moved = f != priced.mhz[i];
    if (!all && !freq_moved && busy == priced.busy[i] && activity == priced.activity[i]) {
      continue;
    }
    if (freq_moved) {
      priced.mhz[i] = f;
      priced.volts[i] = model.VoltsAt(f);
    }
    power_w[i] = model.CorePowerW(f, busy, activity, priced.volts[i]);
    priced.busy[i] = busy;
    priced.activity[i] = activity;
    r->moved = true;
  }
}

// Settle over lanes [begin, end): one tick of counters, then one relax step
// per lane.  Returns the hottest of `hottest` and the relaxed temperatures.
inline Celsius SettleLanes(size_t begin, size_t end, const Mhz* effective_mhz,
                           const WorkSlice* slices, const Watts* power_w, Mhz tsc_mhz,
                           Seconds dt, const CounterLanes& counters, const RelaxLanes& thermal,
                           Celsius hottest) {
  for (size_t i = begin; i < end; i++) {
    const double busy = slices[i].busy_fraction;
    counters.aperf_cycles[i] += effective_mhz[i] * kHzPerMhz * dt * busy;
    counters.mperf_cycles[i] += tsc_mhz * kHzPerMhz * dt * busy;
    counters.instructions_retired[i] += slices[i].instructions;
    counters.energy_j[i] += power_w[i] * dt;
    thermal.temps_c[i] = RelaxedTemp(thermal.temps_c[i], thermal.targets_c[i], thermal.alpha);
    hottest = std::max(hottest, thermal.temps_c[i]);
  }
  return hottest;
}

}  // namespace simd
}  // namespace papd

#endif  // SRC_CPUSIM_SIMD_LANE_STEPS_H_
