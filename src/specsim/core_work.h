// Interfaces between workloads and the processor simulator.
//
// A CoreWork occupies one core; the simulator asks it to run for a time
// slice at the core's current effective frequency and it reports what it
// did: instructions retired, the fraction of the slice the core was busy
// (C0), and the power-relevant characteristics of the executed instruction
// mix (activity factor, AVX fraction).
//
// A MultiCoreWork spans several cores whose behaviour is coupled (the
// websearch queueing model: a request queued on one core affects latency
// seen by all); the simulator advances it once per tick with the effective
// frequencies of all its cores, passed as spans of the package's per-core
// arrays.
//
// Every work implements the span-based `RunBatch`, the one entry point the
// package tick engine calls; its out-params keep the steady-state tick
// allocation-free.  CoreWork also keeps `Run`, a single-slice convenience
// that forwards to RunBatch with n == 1.  It is still virtual only because
// perfbench's TimedWork overrides it; it becomes non-virtual (or goes) when
// perfbench next changes.

#ifndef SRC_SPECSIM_CORE_WORK_H_
#define SRC_SPECSIM_CORE_WORK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace papd {

// What a workload did during one simulation slice on one core.
struct WorkSlice {
  // Instructions retired during the slice.
  double instructions = 0.0;
  // Fraction of the slice the core spent in C0 (0..1).
  double busy_fraction = 0.0;
  // Dynamic-power activity factor of the executed mix (1.0 = the reference
  // integer workload; AVX-heavy code is higher).
  double activity = 0.0;
  // Fraction of instructions that are AVX; drives AVX frequency caps.
  double avx_fraction = 0.0;
};

class CoreWork {
 public:
  virtual ~CoreWork() = default;

  // Advances the workload by dt seconds with the core running at freq_mhz.
  // Forwards to RunBatch with n == 1.
  virtual WorkSlice Run(Seconds dt, Mhz freq_mhz);

  // Advances the workload through n consecutive slices of dt seconds each;
  // freqs_mhz[k] is the core's effective frequency during slice k and
  // out_slices[k] receives that slice's results.  The package tick engine
  // issues n == 1 calls on this path; larger spans let offline drivers batch
  // ticks between control actions.
  virtual void RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices,
                        int n) = 0;

  // True if the workload executes enough AVX code to be subject to the
  // platform's AVX frequency caps.  Must be invariant while the work is
  // attached to a Package: the tick engine caches the value at attach time.
  virtual bool UsesAvx() const = 0;

  // Multi-rate tick support.  SteadyTicks reports how many upcoming dt-ticks
  // the work guarantees to produce (statistically) the same slice it produced
  // on the last Run/RunBatch call, assuming the effective frequency stays
  // fixed.  0 (the default) means "not steady": the tick engine then runs the
  // work every tick.  A work returning k > 0 must accept a later
  // RunSteadyBatch(dt, k', ...) catch-up for any k' <= k.
  virtual int SteadyTicks(Seconds dt) const;

  // Catches internal accounting up over k held ticks of length dt at a fixed
  // frequency, without being Run tick-by-tick; *last_slice is the slice the
  // tick engine replayed during the hold (the work's own last reported slice)
  // and may be updated to reflect the post-hold state.  The default
  // implementation replays RunBatch k times — correct for any work, O(k).
  // Works that report SteadyTicks > 0 should override with an O(1)
  // closed-form update.
  virtual void RunSteadyBatch(Seconds dt, int k, Mhz freq_mhz,
                              WorkSlice* last_slice);

  virtual std::string Name() const = 0;
};

class MultiCoreWork {
 public:
  virtual ~MultiCoreWork() = default;

  // Core ids (package-local) this work occupies; fixed for its lifetime.
  // One ascending run of cores (first, first + 1, ...): the package hands
  // RunBatch its lanes in place and rejects any other shape at attach.
  virtual const std::vector<int>& Cores() const = 0;

  // Advances by dt with freqs_mhz[i] the effective frequency of Cores()[i]
  // (0 MHz for an offline core); out_slices[i] receives that core's slice.
  // n must equal Cores().size().
  virtual void RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices,
                        size_t n) = 0;

  // Must be invariant while attached to a Package (cached at attach time).
  virtual bool UsesAvx() const = 0;

  virtual std::string Name() const = 0;
};

}  // namespace papd

#endif  // SRC_SPECSIM_CORE_WORK_H_
