// Annotated mutex primitives: papd::Mutex, papd::MutexLock, papd::CondVar.
//
// Thin zero-overhead wrappers over std::mutex / std::condition_variable
// whose only addition is the Clang capability annotations from
// thread_annotations.h, so -Wthread-safety can prove lock discipline at
// compile time.  All lock users outside src/common use these (papd_lint's
// raw-mutex rule); members they protect are declared PAPD_GUARDED_BY the
// Mutex, and functions that need a lock held are PAPD_REQUIRES it.
//
// Condition-variable waits are written as explicit loops so the predicate
// is evaluated in the caller, where the analysis can see the lock is held:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(mu_);   // ready_ is PAPD_GUARDED_BY(mu_)
//
// (A predicate-lambda Wait would hide those reads inside a lambda body the
// analysis treats as an unlocked context.)

#ifndef SRC_COMMON_MUTEX_H_
#define SRC_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

namespace papd {

class CondVar;

// A standard exclusive mutex, annotated as a capability.
class PAPD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PAPD_ACQUIRE() { mu_.lock(); }
  void Unlock() PAPD_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock holder (std::lock_guard with annotations).
class PAPD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PAPD_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PAPD_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to papd::Mutex.  Wait() requires the mutex held
// and holds it again on return (it is released while blocked, as always).
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) PAPD_REQUIRES(mu) {
    // Adopt the already-held lock for the wait, then hand ownership back so
    // the caller's MutexLock remains the sole owner.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace papd

#endif  // SRC_COMMON_MUTEX_H_
