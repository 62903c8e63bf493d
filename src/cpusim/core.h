// Per-core simulated state, stored structure-of-arrays.
//
// All mutable per-core state (DVFS request, C-state, attached work, per-tick
// results, hardware counters, voltage-curve memo) lives in flat CoreArray
// vectors owned by Package, so the tick engine's passes are branch-light
// loops over contiguous arrays instead of strided walks over fat Core
// objects.  `Core` is a cheap read-only *view* of one lane: `pkg.core(i)`
// returns it by value, and existing `const Core&` callers bind to the
// temporary unchanged.  Mutations go through Package methods
// (SetRequestedMhz, SetOnline, AttachWork, ...), never through the view.

#ifndef SRC_CPUSIM_CORE_H_
#define SRC_CPUSIM_CORE_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/specsim/core_work.h"

namespace papd {

// Flat per-core state; index = core id.  The tick engine indexes the vectors
// directly; everything else reads through the Core view.
struct CoreArray {
  CoreArray(int n, Mhz initial_mhz)
      : requested_mhz(static_cast<size_t>(n), initial_mhz),
        online(static_cast<size_t>(n), 1),
        work(static_cast<size_t>(n), nullptr),
        work_avx(static_cast<size_t>(n), 0),
        effective_mhz(static_cast<size_t>(n), Mhz{0.0}),
        slice(static_cast<size_t>(n)),
        power_w(static_cast<size_t>(n), Watts{0.0}),
        aperf_cycles(static_cast<size_t>(n), 0.0),
        mperf_cycles(static_cast<size_t>(n), 0.0),
        instructions_retired(static_cast<size_t>(n), 0.0),
        energy_j(static_cast<size_t>(n), Joules{0.0}),
        volts_cache_mhz(static_cast<size_t>(n), Mhz{-1.0}),
        volts_cache_v(static_cast<size_t>(n), Volts{0.0}) {}

  size_t size() const { return requested_mhz.size(); }

  // Software-visible control state.
  std::vector<Mhz> requested_mhz;
  std::vector<uint8_t> online;  // Online = C0/C1; offline = forced deep C-state.
  // Work attachment (non-owning); work_avx caches work->UsesAvx() at attach
  // time, so the census makes no virtual calls.
  std::vector<CoreWork*> work;
  std::vector<uint8_t> work_avx;

  // Per-tick results (written by Package::Tick).
  std::vector<Mhz> effective_mhz;
  std::vector<WorkSlice> slice;
  std::vector<Watts> power_w;

  // Hardware counters (monotonic; read via MsrFile).
  std::vector<double> aperf_cycles;
  std::vector<double> mperf_cycles;
  std::vector<double> instructions_retired;
  std::vector<Joules> energy_j;

  // Memoized voltage-curve lookups: effective frequency rarely changes
  // between ticks, so the piecewise-linear interpolation is cached per core.
  // For an online lane volts_cache_mhz is also the frequency the lane was
  // last priced at, which the every-tick power memo compares against.
  std::vector<Mhz> volts_cache_mhz;
  std::vector<Volts> volts_cache_v;
};

// Read-only view of one core's lane in a CoreArray.
class Core {
 public:
  Core(const CoreArray* cores, int id) : cores_(cores), id_(id) {}

  int id() const { return id_; }

  // Requested (programmed) frequency; the package clamps it by turbo
  // headroom, AVX caps, and the RAPL ceiling to get the effective frequency.
  Mhz requested_mhz() const { return cores_->requested_mhz[lane()]; }

  // Online = C0/C1; offline models a forced deep C-state (core idling,
  // paper Section 2.1): the core does not execute and draws ~milliwatts.
  bool online() const { return cores_->online[lane()] != 0; }

  // Exactly one of: a single-core work, membership in a multi-core work
  // (tracked by the package), or nothing.
  CoreWork* work() const { return cores_->work[lane()]; }

  // Per-tick results (set by Package::Tick).
  Mhz effective_mhz() const { return cores_->effective_mhz[lane()]; }
  const WorkSlice& last_slice() const { return cores_->slice[lane()]; }
  Watts power_w() const { return cores_->power_w[lane()]; }

  // Hardware counters (monotonic; read via MsrFile).
  double aperf_cycles() const { return cores_->aperf_cycles[lane()]; }
  double mperf_cycles() const { return cores_->mperf_cycles[lane()]; }
  double instructions_retired() const { return cores_->instructions_retired[lane()]; }
  Joules energy_j() const { return cores_->energy_j[lane()]; }

 private:
  size_t lane() const { return static_cast<size_t>(id_); }

  const CoreArray* cores_;
  int id_;
};

}  // namespace papd

#endif  // SRC_CPUSIM_CORE_H_
