#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>

#include "src/common/check.h"

namespace papd {
namespace obs {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kPeriodBegin:
      return "period-begin";
    case TraceEventType::kPeriodEnd:
      return "period-end";
    case TraceEventType::kRedistribute:
      return "redistribute";
    case TraceEventType::kAppTarget:
      return "app-target";
    case TraceEventType::kMinFundingRevoke:
      return "min-funding-revoke";
    case TraceEventType::kLadderTransition:
      return "ladder-transition";
    case TraceEventType::kPstateWrite:
      return "pstate-write";
    case TraceEventType::kClusterGrant:
      return "cluster-grant";
    case TraceEventType::kSloShift:
      return "slo-shift";
  }
  return "?";
}

ThreadTraceContext& ThreadTrace() {
  thread_local ThreadTraceContext ctx;
  return ctx;
}

namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

// Per-thread cache of (recorder id -> ring).  Keyed by the process-unique
// recorder id, never the pointer: a destroyed recorder's id is never
// reused, so a stale entry can never match (and its dangling ring pointer
// is never dereferenced).  Entries accumulate per recorder ever used on
// this thread — bounded by test/recorder churn, a few dozen at most.
struct ThreadRingCache {
  std::vector<std::pair<uint64_t, void*>> entries;
};

ThreadRingCache& RingCache() {
  thread_local ThreadRingCache cache;
  return cache;
}

}  // namespace

TraceRecorder::TraceRecorder(size_t ring_capacity)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(ring_capacity) {
  PAPD_CHECK_GE(capacity_, 1u);
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::Ring* TraceRecorder::ThreadRing() {
  ThreadRingCache& cache = RingCache();
  for (const auto& [id, ring] : cache.entries) {
    if (id == id_) {
      return static_cast<Ring*>(ring);
    }
  }
  // First event from this thread: register a fresh ring.  This is the only
  // locked step; every later event from the thread hits the cache above.
  auto ring = std::make_unique<Ring>(capacity_);
  Ring* raw = ring.get();
  {
    MutexLock lock(mu_);
    rings_.push_back(std::move(ring));
  }
  cache.entries.emplace_back(id_, raw);
  return raw;
}

void TraceRecorder::OnEvent(const TraceEvent& event) {
  Ring* ring = ThreadRing();
  ring->buf[ring->head % capacity_] = event;
  ring->head++;
}

std::vector<TraceEvent> TraceRecorder::Drain() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  for (const auto& ring : rings_) {
    const uint64_t kept = std::min<uint64_t>(ring->head, capacity_);
    // Oldest retained event first.
    for (uint64_t k = 0; k < kept; k++) {
      out.push_back(ring->buf[(ring->head - kept + k) % capacity_]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) { return x.t < y.t; });
  return out;
}

uint64_t TraceRecorder::recorded() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->head;
  }
  return total;
}

uint64_t TraceRecorder::dropped() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    if (ring->head > capacity_) {
      total += ring->head - capacity_;
    }
  }
  return total;
}

int TraceRecorder::num_threads() const {
  MutexLock lock(mu_);
  return static_cast<int>(rings_.size());
}

}  // namespace obs
}  // namespace papd
