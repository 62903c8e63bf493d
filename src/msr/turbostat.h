// Turbostat-like telemetry sampler.
//
// The paper's daemon collects per-second statistics with a modified
// turbostat: package power (RAPL energy counter deltas), per-core power on
// Ryzen, active frequency (APERF/MPERF), and performance (retired
// instructions per second).  Turbostat reproduces that: it snapshots the
// MSR counters and turns successive snapshots into rates, including the
// 32-bit wrap handling real RAPL energy counters require.
//
// Real MSR telemetry is noisy, so Sample() also *validates*: a sample with
// no elapsed time, a counter that jumped backward (reset), or a rate beyond
// physical plausibility (energy-counter wrap storm, transient read spike)
// is flagged invalid, its fault bits recorded, and the affected rates are
// replaced with the last known-good values so naive consumers never see
// "zero power = infinite headroom" or 1.8e19 instructions per second.
// Consumers that can degrade gracefully (PowerDaemon, whatever policy it
// runs) key off TelemetrySample::valid instead of the substituted rates.

#ifndef SRC_MSR_TURBOSTAT_H_
#define SRC_MSR_TURBOSTAT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/units.h"
#include "src/msr/msr.h"
#include "src/obs/metrics.h"

namespace papd {

// TelemetrySample::fault_flags bits.  The first two are package-scope and
// invalidate the sample; the last two are core-scope — the affected cores
// are marked implausible and their rates substituted, but the sample stays
// valid (package power is still sound).
inline constexpr uint32_t kSampleStale = 1u << 0;             // No time elapsed / repeat.
inline constexpr uint32_t kSampleEnergyImplausible = 1u << 1; // Pkg energy wrap/reset storm.
inline constexpr uint32_t kSampleCounterReset = 1u << 2;      // Fixed counter went backward.
inline constexpr uint32_t kSampleRateImplausible = 1u << 3;   // Core rate/power implausible.

struct CoreTelemetry {
  int cpu = 0;
  bool online = true;
  // False when this core's counters regressed or its rates failed the
  // plausibility checks this period (rates below are then the last good
  // readings, not this period's garbage).
  bool plausible = true;
  // Average frequency while in C0 ("active frequency" in the paper).
  Mhz active_mhz{0.0};
  // C0 residency fraction.
  double busy = 0.0;
  // Retired instructions per second.
  Ips ips{0.0};
  // Per-core power; present only on platforms with per-core telemetry.
  std::optional<Watts> core_w;
  // Junction temperature from the digital thermometer.
  double temp_c = 0.0;
};

struct TelemetrySample {
  Seconds t{0.0};   // Sample timestamp.
  Seconds dt{0.0};  // Interval covered.
  Watts pkg_w{0.0};
  // False when a package-scope validity check failed (stale read, garbage
  // package energy); fault_flags says which.  Control loops must not treat
  // an invalid sample as fresh truth.
  bool valid = true;
  uint32_t fault_flags = 0;
  std::vector<CoreTelemetry> cores;
};

class Turbostat {
 public:
  // Borrows the MSR file; takes the initial counter snapshot.
  explicit Turbostat(MsrFile* msr);

  // Produces rates over the interval since the previous Sample() (or since
  // construction), validated and flagged as described above.  With
  // validation disabled (set_validation(false)) the raw pre-hardening
  // behavior is reproduced: zero elapsed time yields an all-zero sample
  // marked valid and counter deltas wrap unsigned — the mode the fault-
  // tolerance ablation uses as its "naive daemon" baseline.
  TelemetrySample Sample();

  void set_validation(bool on) { validate_ = on; }
  bool validation() const { return validate_; }

  // Samples rejected by validation since construction.
  int invalid_samples() const { return static_cast<int>(invalid_counter_->value()); }

  // Redirects the invalid-sample count into `counter` (typically a
  // metrics-registry counter owned by the consuming daemon), making it the
  // single source of truth for both sides.  Call before the first Sample();
  // any count already accumulated on the previous counter is carried over.
  void BindInvalidSampleCounter(obs::Counter* counter) {
    counter->Increment(invalid_counter_->value());
    invalid_counter_ = counter;
  }

 private:
  struct Snapshot {
    Seconds t{0.0};
    uint64_t pkg_energy = 0;
    std::vector<uint64_t> aperf;
    std::vector<uint64_t> mperf;
    std::vector<uint64_t> instructions;
    std::vector<uint64_t> core_energy;
  };

  Snapshot Take() const;
  TelemetrySample RawSample(const Snapshot& now);
  // Serves a stale/zero-dt sample: invalid, rates re-served from the last
  // known-good sample.
  TelemetrySample StaleSample();

  // Signed counter delta clamped at zero: a backward jump (counter reset)
  // must not wrap to ~1.8e19.  Sets *regressed when clamping happened.
  static double ClampedDelta(uint64_t now, uint64_t before, bool* regressed);

  MsrFile* msr_;
  Snapshot prev_;
  bool validate_ = true;
  // Validation rejections; counts into own_invalid_counter_ until a
  // consumer rebinds it (BindInvalidSampleCounter).
  obs::Counter own_invalid_counter_;
  obs::Counter* invalid_counter_ = &own_invalid_counter_;
  // Plausibility ceilings, derived from the platform spec.
  Watts max_plausible_pkg_w_{0.0};
  Watts max_plausible_core_w_{0.0};
  Ips max_plausible_ips_{0.0};
  Mhz max_plausible_mhz_{0.0};
  // Last sample that passed validation, re-served while telemetry is bad.
  TelemetrySample last_good_;
  bool has_last_good_ = false;
};

// Delta of a 32-bit wrapping counter.
uint64_t WrappingDelta32(uint64_t now, uint64_t before);

}  // namespace papd

#endif  // SRC_MSR_TURBOSTAT_H_
