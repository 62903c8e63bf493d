#include "src/common/thread_pool.h"

#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "src/common/check.h"

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
  cv_.NotifyAll();
  for (std::thread& t : workers_) {
    t.join();
  }
}

int ThreadPool::DefaultJobs() {
  // Read once during pool construction, before any worker thread exists, so
  // the mt-unsafe getenv cannot race a setenv from another thread of ours.
  if (const char* env = std::getenv("PAPD_JOBS")) {  // NOLINT(concurrency-mt-unsafe)
    char* end = nullptr;
    const long jobs = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && jobs > 0) {
      return static_cast<int>(jobs);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ThreadPool::WorkerLoop() {
  tls_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (queue_.empty()) {
        return;  // stopping_ and drained.
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (tls_current_pool == this) {
    throw std::logic_error(
        "ThreadPool::ParallelFor called from a worker of the same ThreadPool "
        "(nested submission deadlocks a fixed-size pool)");
  }
  if (n == 0) {
    return;
  }
  if (n == 1 || num_threads() == 1) {
    // Inline serial path: identical results by the no-shared-state
    // contract, and no cross-thread hop for trivial batches.
    for (size_t i = 0; i < n; i++) {
      fn(i);
    }
    return;
  }

  // `state` lives on the caller's stack: workers must never touch it after
  // the caller's wait returns, so the counter is decremented and the
  // completion notified *under* done_mu — the waiter cannot observe
  // remaining == 0 until the last worker has released the mutex.
  struct BatchState {
    std::vector<std::exception_ptr> errors;
    Mutex done_mu;
    CondVar done_cv;
    size_t remaining PAPD_GUARDED_BY(done_mu) = 0;
  };
  BatchState state;
  state.errors.resize(n);
  {
    MutexLock init_lock(state.done_mu);
    state.remaining = n;
  }

  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < n; i++) {
      queue_.push([&state, &fn, i] {
        try {
          fn(i);
        } catch (...) {
          state.errors[i] = std::current_exception();
        }
        MutexLock done_lock(state.done_mu);
        if (--state.remaining == 0) {
          state.done_cv.NotifyOne();
        }
      });
    }
  }
  cv_.NotifyAll();

  {
    MutexLock done_lock(state.done_mu);
    while (state.remaining != 0) {
      state.done_cv.Wait(state.done_mu);
    }
  }

  for (std::exception_ptr& e : state.errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool(ThreadPool::DefaultJobs());
  return pool;
}

ShardTeam::ShardTeam(int shards, std::function<void(int shard)> body)
    : body_(std::move(body)) {
  PAPD_CHECK_GE(shards, 1);
  workers_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; s++) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

ShardTeam::~ShardTeam() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  start_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    t.join();
  }
}

// PAPD_HOT
void ShardTeam::RunOnce() {
  {
    MutexLock lock(mu_);
    generation_++;
    running_ = shards();
  }
  start_cv_.NotifyAll();
  MutexLock lock(mu_);
  while (running_ != 0) {
    done_cv_.Wait(mu_);
  }
}

void ShardTeam::WorkerLoop(int shard) {
  uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!stopping_ && generation_ == seen) {
        start_cv_.Wait(mu_);
      }
      if (stopping_) {
        return;
      }
      seen = generation_;
    }
    body_(shard);
    MutexLock lock(mu_);
    if (--running_ == 0) {
      done_cv_.NotifyOne();
    }
  }
}

}  // namespace papd
