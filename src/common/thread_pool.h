// Fixed-size worker pool for scenario-level parallelism.
//
// The experiment stack replays dozens of *independent* simulated scenarios
// (each owns its Package / Simulator / RNG), so the natural unit of
// parallelism is a whole scenario.  The pool is deliberately minimal: a
// fixed worker count chosen at construction, a task queue, and ParallelFor.
// Determinism is the caller's contract — tasks must not share mutable
// state — and the pool guarantees only scheduling, never ordering.
//
// Worker count resolution (ThreadPool::DefaultJobs): the PAPD_JOBS
// environment variable if set to a positive integer, otherwise
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
#include <functional>
#include <queue>
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

  // PAPD_JOBS env override if positive, else hardware_concurrency (min 1).
  static int DefaultJobs();

  // Runs fn(0..n-1) across the pool and blocks until all complete.  The
  // first exception (by lowest index) is rethrown on the caller.  Runs
  // inline on the caller when n <= 1 or the pool has a single worker —
  // bit-identical to a plain serial loop either way, provided the body only
  // touches state owned by its index.  Throws std::logic_error when called
  // from a worker of this pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) PAPD_EXCLUDES(mu_);

 private:
  void WorkerLoop() PAPD_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ PAPD_GUARDED_BY(mu_);
  bool stopping_ PAPD_GUARDED_BY(mu_) = false;
};

// Process-wide pool, constructed on first use with DefaultJobs() workers.
// Intended for the batch experiment APIs; tests build their own pools.
ThreadPool& GlobalThreadPool();

// Persistent fork/join team for repeated identical fan-outs.
//
// ThreadPool::ParallelFor allocates per call (queue nodes, std::function
// closures, a shared batch block) — fine for scenario batches, fatal for a
// steady-state cluster step that must be allocation-free.  A ShardTeam
// fixes the body and the shard count at construction: RunOnce() bumps a
// generation counter, wakes the persistent workers, and blocks until every
// shard reports done, touching no heap at all.  The body runs as
// body(shard) for shard in [0, shards); it must not throw (a PAPD_CHECK
// abort is the only supported failure) and must only touch state owned by
// its shard.  RunOnce() is not reentrant and must always be called from the
// same single controlling thread.
class ShardTeam {
 public:
  ShardTeam(int shards, std::function<void(int shard)> body);
  ~ShardTeam();

  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  int shards() const { return static_cast<int>(workers_.size()); }

  // Runs body(0..shards-1) once across the persistent workers and blocks
  // until all complete.  Performs no heap allocation.
  void RunOnce() PAPD_EXCLUDES(mu_);

 private:
  void WorkerLoop(int shard) PAPD_EXCLUDES(mu_);

  std::function<void(int)> body_;
  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar start_cv_;
  CondVar done_cv_;
  uint64_t generation_ PAPD_GUARDED_BY(mu_) = 0;
  int running_ PAPD_GUARDED_BY(mu_) = 0;
  bool stopping_ PAPD_GUARDED_BY(mu_) = false;
};

}  // namespace papd

#endif  // SRC_COMMON_THREAD_POOL_H_
