// Fixed-size worker pool for scenario-level parallelism.
//
// The experiment stack replays dozens of *independent* simulated scenarios
// (each owns its Package / Simulator / RNG), so the natural unit of
// parallelism is a whole scenario; the budget tree fans its leaves out on
// the same pool every control period.  The pool is deliberately minimal: a
// fixed worker count chosen at construction and a heap-free fork/join,
// ParallelFor.  A call publishes its body and index count in the pool's one
// batch slot and wakes one worker; workers claim the indices one at a time,
// each claim that leaves some unclaimed waking one more worker, and the
// caller blocks until every index has finished.  Determinism is the
// caller's contract — indices must not share mutable state — and the pool
// guarantees only scheduling, never ordering.
//
// One call runs on a pool at a time: a ParallelFor from a second thread
// waits until the batch in flight finishes before it publishes its own.
//
// Worker count resolution (ThreadPool::DefaultJobs): the PAPD_JOBS
// environment variable if set to an integer in [1, INT_MAX], otherwise
// std::thread::hardware_concurrency().  PAPD_JOBS=1 forces serial
// execution (ParallelFor then runs inline on the caller).
//
// Nested submission is rejected: a task running on a pool worker may not
// ParallelFor on the same pool, because with a fixed worker count that
// deadlocks once all workers block on children.  ParallelFor throws
// std::logic_error in that case.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace papd {

class ThreadPool {
 public:
  // num_threads <= 0 resolves via DefaultJobs().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // PAPD_JOBS env override if in [1, INT_MAX], else hardware_concurrency
  // (min 1).
  static int DefaultJobs();

  // Runs fn(0..n-1) across the pool and blocks until all complete.  The
  // first exception (by lowest index) is rethrown on the caller once every
  // index has run.  Runs inline on the caller when n <= 1 or the pool has a
  // single worker — bit-identical to a plain serial loop either way,
  // provided the body only touches state owned by its index.  Allocates
  // nothing.  Throws std::logic_error when called from a worker of this
  // pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) PAPD_EXCLUDES(mu_);

 private:
  void WorkerLoop() PAPD_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar work_cv_;  // One worker: the batch has unclaimed indices; all: stop.
  CondVar done_cv_;  // Callers: the batch finished, or the slot came free.
  // The one batch in flight.  A non-null fn_ marks the slot busy; it points
  // at the caller's body, which outlives every index of the batch.
  const std::function<void(size_t)>* fn_ PAPD_GUARDED_BY(mu_) = nullptr;
  size_t n_ PAPD_GUARDED_BY(mu_) = 0;
  size_t next_ PAPD_GUARDED_BY(mu_) = 0;  // Next index to claim.
  size_t done_ PAPD_GUARDED_BY(mu_) = 0;  // Indices finished.
  size_t error_index_ PAPD_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ PAPD_GUARDED_BY(mu_);  // From the lowest index that threw.
  bool stopping_ PAPD_GUARDED_BY(mu_) = false;
};

// Runs fn(0..n-1) on `pool` (ThreadPool::ParallelFor, under its rules), or
// in index order on the calling thread when `pool` is null.  Every function
// that takes a ThreadPool* fans out through this, so null always means the
// caller.
void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn);

// Process-wide pool, constructed on first use with DefaultJobs() workers.
// The default pool of the batch experiment APIs; tests build their own.
ThreadPool& GlobalThreadPool();

}  // namespace papd

#endif  // SRC_COMMON_THREAD_POOL_H_
