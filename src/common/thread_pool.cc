#include "src/common/thread_pool.h"

#include <climits>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace papd {
namespace {

// Pool whose workers are currently executing a task on this thread; used to
// reject nested submission (which can deadlock a fixed-size pool).
thread_local const ThreadPool* tls_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = DefaultJobs();
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    t.join();
  }
}

int ThreadPool::DefaultJobs() {
  // Read once during pool construction, before any worker thread exists, so
  // the mt-unsafe getenv cannot race a setenv from another thread of ours.
  if (const char* env = std::getenv("PAPD_JOBS")) {  // NOLINT(concurrency-mt-unsafe)
    char* end = nullptr;
    // Out-of-range input saturates at LLONG_MIN/LLONG_MAX, which the range
    // check below rejects along with everything else an int cannot hold.
    const long long jobs = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && jobs >= 1 && jobs <= INT_MAX) {
      return static_cast<int>(jobs);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ThreadPool::WorkerLoop() {
  tls_current_pool = this;
  // The body and index this worker ran last (fn is null before its first
  // claim), reported back together with the next claim so each index costs
  // one lock acquisition.
  const std::function<void(size_t)>* fn = nullptr;
  size_t index = 0;
  std::exception_ptr error;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (fn != nullptr) {
        // The slot cannot change hands before this index reports, so the
        // report always lands on the batch it was claimed from.
        if (error && (!error_ || index < error_index_)) {
          error_ = std::move(error);
          error_index_ = index;
        }
        error = nullptr;
        if (++done_ == n_) {
          done_cv_.NotifyAll();
        }
      }
      while (!stopping_ && (fn_ == nullptr || next_ == n_)) {
        work_cv_.Wait(mu_);
      }
      if (stopping_) {
        return;  // No batch is in flight once the destructor runs.
      }
      fn = fn_;
      index = next_++;
      if (next_ != n_) {
        work_cv_.NotifyOne();  // Pass the wakeup on (see ParallelFor).
      }
    }
    try {
      (*fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
  }
}

// PAPD_HOT — the budget tree fans its leaves out here every control period.
void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (tls_current_pool == this) {
    throw std::logic_error(
        "ThreadPool::ParallelFor called from a worker of the same ThreadPool "
        "(nested submission deadlocks a fixed-size pool)");
  }
  if (n <= 1 || num_threads() == 1) {
    // Inline serial path: identical results by the no-shared-state
    // contract, and no cross-thread hop for trivial batches.
    for (size_t i = 0; i < n; i++) {
      fn(i);
    }
    return;
  }

  {
    MutexLock lock(mu_);
    while (fn_ != nullptr) {
      done_cv_.Wait(mu_);  // Another thread's batch holds the slot.
    }
    fn_ = &fn;
    n_ = n;
    next_ = 0;
    done_ = 0;
  }
  // Wake one worker; each claim that leaves indices unclaimed wakes the
  // next.  Waking every worker at once let the scheduler queue two of them
  // on one CPU while another CPU sat idle, which stretched the budget
  // tree's per-period leaf fan-out (DESIGN §7, "The pool").
  work_cv_.NotifyOne();
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    while (done_ != n_) {
      done_cv_.Wait(mu_);
    }
    fn_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  done_cv_.NotifyAll();  // Wake a caller waiting for the slot.

  if (error) {
    std::rethrow_exception(error);
  }
}

void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; i++) {
    fn(i);
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool(ThreadPool::DefaultJobs());
  return pool;
}

}  // namespace papd
