// Per-period tracing: typed events, the ObsSink interface, and a
// lock-free-per-thread ring-buffer recorder.
//
// The daemon is a 1 Hz feedback controller; diagnosing a power-capping
// policy needs per-decision time-series visibility (which app lost budget
// in which period, when the degradation ladder moved, whether a P-state
// write verified), not just end-of-run aggregates.  Every decision point
// emits a fixed-size typed TraceEvent into an ObsSink:
//
//   kPeriodBegin/kPeriodEnd   one daemon control period (B/E pair)
//   kRedistribute             policy redistribution ran (power delta, #apps)
//   kAppTarget                per-app target before/after a redistribution
//   kMinFundingRevoke         an entry was pinned at a bound and revoked
//   kLadderTransition         degradation-ladder state change
//   kPstateWrite              P-state program + read-back verification
//   kClusterGrant             budget-tree arbiter grant to one tree node
//   kSloShift                 SLO-feedback arbiter moved a node's share bias
//
// Emission has two paths:
//   - components holding an ObsSink* (PowerDaemon, BudgetTree) call
//     OnEvent directly, guarded by a null check;
//   - deep library code (min-funding revocation) uses the PAPD_TRACE_*
//     macros, which read a thread-local context installed by whoever drives
//     the thread (ScopedThreadTrace).  With no sink installed the macros
//     compile to a thread-local load plus a branch-on-null — cheap enough
//     that tracing support costs nothing when disabled.
//
// TraceRecorder is the standard sink: each recording thread gets its own
// fixed-capacity ring buffer (registered once under a mutex, then written
// lock-free), so concurrent tree leaves trace safely without serializing.
// Drain() merges the rings; it must only run while no thread is recording
// (after a ThreadPool barrier or join).

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace papd {
namespace obs {

enum class TraceEventType : uint8_t {
  kPeriodBegin = 0,
  kPeriodEnd,
  kRedistribute,
  kAppTarget,
  kMinFundingRevoke,
  kLadderTransition,
  kPstateWrite,
  kClusterGrant,
  kSloShift,
};

inline constexpr int kNumTraceEventTypes = 9;

const char* TraceEventTypeName(TraceEventType type);

// Event-specific payload value: the unit depends on the event type (see the
// table below) — watts, MHz, microseconds, or a count.  Payloads are raw
// doubles by design (one fixed-size event struct for every event type);
// ToPayload is the sanctioned unit-erasing bridge, so emission sites can
// pass typed quantities without unwrapping them locally.
using TracePayload = double;

constexpr TracePayload ToPayload(double v) { return v; }
template <class Tag>
constexpr TracePayload ToPayload(Quantity<Tag> q) {
  return q.value();
}

// One fixed-size typed event.  The payload fields are event-specific:
//
//   type              index          code                 a            b
//   kPeriodBegin      period #       ladder state         pkg_w        limit_w
//   kPeriodEnd        period #       ladder state         latency_us   -
//   kRedistribute     app count      1 = targets changed  pkg_w-limit  -
//   kAppTarget        app index      1 = changed          before MHz   after MHz
//   kMinFundingRevoke entry index    0 = min, 1 = max     pinned value -
//   kLadderTransition old state      new state            bad streak   -
//   kPstateWrite      app count      1 = verified ok      max MHz      min MHz
//   kClusterGrant     node index     tree level           grant W      reported W
//   kSloShift         node index     tree level           bias after   p90 seconds
struct TraceEvent {
  Seconds t;  // Simulated time the event belongs to.
  TraceEventType type = TraceEventType::kPeriodBegin;
  int16_t shard = 0;  // Budget-tree node index (0 for single-socket runs).
  int32_t index = -1;
  int32_t code = 0;
  TracePayload a = 0.0;
  TracePayload b = 0.0;
};

// Receiver of trace events.  Tests implement this to assert on emitted
// events; TraceRecorder is the standard ring-buffer implementation.
// OnEvent may be called concurrently from multiple threads (tree leaves);
// implementations must be thread-safe.
class ObsSink {
 public:
  virtual ~ObsSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// --- Thread-local trace context (PAPD_TRACE_* macros) ------------------------

// The context deep library code records through.  Installed by the
// component driving the thread (PowerDaemon::Step), which also stamps the
// current simulated time and shard.
struct ThreadTraceContext {
  ObsSink* sink = nullptr;
  Seconds t;
  int16_t shard = 0;
};

ThreadTraceContext& ThreadTrace();

// RAII installer; restores the previous context on destruction so nested
// scopes (tree arbiter driving per-socket daemons) compose.
class ScopedThreadTrace {
 public:
  ScopedThreadTrace(ObsSink* sink, Seconds t, int16_t shard) : saved_(ThreadTrace()) {
    ThreadTrace() = ThreadTraceContext{sink, t, shard};
  }
  ~ScopedThreadTrace() { ThreadTrace() = saved_; }

  ScopedThreadTrace(const ScopedThreadTrace&) = delete;
  ScopedThreadTrace& operator=(const ScopedThreadTrace&) = delete;

 private:
  ThreadTraceContext saved_;
};

// Generic emission through the thread context: one TLS load and a
// branch-on-null when tracing is disabled.  Arguments are not evaluated
// when no sink is installed.
#define PAPD_TRACE_EVENT(type_, index_, code_, a_, b_)                              \
  do {                                                                              \
    ::papd::obs::ThreadTraceContext& papd_trace_ctx_ = ::papd::obs::ThreadTrace();  \
    if (papd_trace_ctx_.sink != nullptr) {                                          \
      ::papd::obs::TraceEvent papd_trace_ev_;                                       \
      papd_trace_ev_.t = papd_trace_ctx_.t;                                         \
      papd_trace_ev_.type = (type_);                                                \
      papd_trace_ev_.shard = papd_trace_ctx_.shard;                                 \
      papd_trace_ev_.index = static_cast<int32_t>(index_);                          \
      papd_trace_ev_.code = static_cast<int32_t>(code_);                            \
      papd_trace_ev_.a = ::papd::obs::ToPayload(a_);                                \
      papd_trace_ev_.b = ::papd::obs::ToPayload(b_);                                \
      papd_trace_ctx_.sink->OnEvent(papd_trace_ev_);                                \
    }                                                                               \
  } while (0)

// Min-funding revocation: `entry` pinned at its minimum (at_max == false)
// or maximum (at_max == true) bound with `value` resource units.
#define PAPD_TRACE_REVOKE(entry_, value_, at_max_) \
  PAPD_TRACE_EVENT(::papd::obs::TraceEventType::kMinFundingRevoke, entry_, (at_max_) ? 1 : 0, value_, 0.0)

// --- Ring-buffer recorder ----------------------------------------------------

inline constexpr size_t kDefaultRingCapacity = 1 << 16;

// The standard sink: per-thread fixed rings, oldest events overwritten on
// wrap.  Ring registration (first event from a new thread) takes a mutex;
// every later event is a plain array store — no atomics, no locks — so
// concurrent shards never contend.  Drain()/recorded()/dropped() must only
// be called while recording threads are quiescent (joined or past a
// ThreadPool barrier).
class TraceRecorder : public ObsSink {
 public:
  explicit TraceRecorder(size_t ring_capacity = kDefaultRingCapacity);
  ~TraceRecorder() override;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void OnEvent(const TraceEvent& event) override PAPD_EXCLUDES(mu_);

  // All retained events, merged across threads and sorted by time (stable:
  // same-time events keep per-thread order).
  std::vector<TraceEvent> Drain() const PAPD_EXCLUDES(mu_);

  // Total events accepted / overwritten by ring wrap, across all threads.
  uint64_t recorded() const PAPD_EXCLUDES(mu_);
  uint64_t dropped() const PAPD_EXCLUDES(mu_);

  size_t ring_capacity() const { return capacity_; }
  int num_threads() const PAPD_EXCLUDES(mu_);

 private:
  struct Ring {
    explicit Ring(size_t capacity) : buf(capacity) {}
    std::vector<TraceEvent> buf;
    uint64_t head = 0;  // Total writes; slot = head % capacity.
  };

  Ring* ThreadRing() PAPD_EXCLUDES(mu_);

  const uint64_t id_;  // Process-unique; keys the thread-local ring cache.
  const size_t capacity_;
  // Guards the rings_ *vector* (registration and the Drain walk).  The Ring
  // contents are written lock-free by their owning thread; the quiescence
  // contract above is what makes Drain's reads safe.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_ PAPD_GUARDED_BY(mu_);
};

}  // namespace obs

// Components take a papd::ObsSink*; the implementation lives in obs::.
using ObsSink = obs::ObsSink;

}  // namespace papd

#endif  // SRC_OBS_TRACE_H_
