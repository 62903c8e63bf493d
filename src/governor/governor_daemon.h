// Per-core governor loop: the cpufreq-style counterpart of PowerDaemon.
//
// Samples per-core utilization through turbostat and lets one governor
// instance per core pick the next P-state request.  Used by the governor
// baseline bench to show that utilization-driven DVFS, even combined with a
// RAPL cap, provides no differential power delivery: a power virus is 100%
// utilized and therefore always asks for (and receives) the maximum
// frequency.

#ifndef SRC_GOVERNOR_GOVERNOR_DAEMON_H_
#define SRC_GOVERNOR_GOVERNOR_DAEMON_H_

#include <memory>
#include <vector>

#include "src/governor/governor.h"
#include "src/msr/msr.h"
#include "src/msr/turbostat.h"
#include "src/obs/trace.h"

namespace papd {

class GovernorDaemon {
 public:
  // One governor of `kind` per core; limits default to the platform range.
  // Every decision is checked against the platform envelope and frequency
  // grid before it is programmed; a violation aborts with a formatted
  // CHECK failure.
  GovernorDaemon(MsrFile* msr, GovernorKind kind);

  // One sampling + decision iteration; call once per period (Linux cpufreq
  // uses tens of milliseconds; the bench uses 100 ms).
  //
  // Degrades gracefully on bad telemetry: an invalid sample holds the
  // current requests; kFallbackAfter consecutive invalid samples drop every
  // core to the platform minimum until telemetry recovers.  Cores whose
  // rates individually failed plausibility (CoreTelemetry::plausible) are
  // held even within a valid sample.
  void Step();

  // Consecutive invalid samples before falling back to the minimum.
  static constexpr int kFallbackAfter = 3;

  // Last decisions, per core.
  const std::vector<Mhz>& requests() const { return requests_; }

  FreqGovernor& governor(int cpu) { return *governors_[static_cast<size_t>(cpu)]; }

  // Current run of consecutive invalid samples (0 = telemetry healthy).
  int invalid_streak() const { return invalid_streak_; }
  bool in_fallback() const { return invalid_streak_ >= kFallbackAfter; }

  // Routes per-period trace events (period begin/end, fallback transitions,
  // P-state writes) to `sink`, stamped with `shard`; null disables tracing.
  void BindObs(ObsSink* sink, int16_t shard = 0) {
    obs_sink_ = sink;
    obs_shard_ = shard;
  }

 private:
  void Emit(obs::TraceEventType type, int32_t index, int32_t code, double a, double b) const;
  // a/b accept any payload obs::ToPayload handles (doubles or quantities).
  template <class A, class B>
  void Emit(obs::TraceEventType type, int32_t index, int32_t code, A a, B b) const {
    Emit(type, index, code, obs::ToPayload(a), obs::ToPayload(b));
  }

  MsrFile* msr_;
  Turbostat turbostat_;
  std::vector<std::unique_ptr<FreqGovernor>> governors_;
  std::vector<Mhz> requests_;
  int invalid_streak_ = 0;
  ObsSink* obs_sink_ = nullptr;
  int16_t obs_shard_ = 0;
  int period_ = 0;
  Seconds last_sample_t_{0.0};
};

}  // namespace papd

#endif  // SRC_GOVERNOR_GOVERNOR_DAEMON_H_
