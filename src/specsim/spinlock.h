// Lock-contended multithreaded workload.
//
// Paper Section 5.2 warns that IPS is only a usable performance proxy for
// single-threaded workloads: "for multithreaded workloads with lock
// contention, where spinlocks may artificially inflate instruction counts,
// hardware mechanisms such as Intel's HWP with its abstract performance
// metric may be a better choice."  SpinLockWork makes that failure mode
// concrete: k threads on k cores iterate
//
//     local work (w cycles)  ->  acquire global lock  ->
//     critical section (h cycles)  ->  release  ->  ...
//
// with FIFO handoff and *spin waiting* — a waiting core burns cycles
// retiring spin-loop instructions at full rate.  Two properties follow:
//
//   - Convoy effect: throttling one core stretches every critical section
//     it executes, so the *system* iteration rate falls far more than the
//     one core's frequency share would suggest.
//   - IPS inflation: the other cores' retired-instruction counters stay
//     high (they spin), so an IPS-driven policy sees healthy "performance"
//     on exactly the cores whose useful work is collapsing.
//
// Useful progress is exposed separately as completed iterations.

#ifndef SRC_SPECSIM_SPINLOCK_H_
#define SRC_SPECSIM_SPINLOCK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/specsim/core_work.h"

namespace papd {

class SpinLockWork : public MultiCoreWork {
 public:
  // One thread per core.  The iteration shape (w = 40000 local cycles,
  // h = 20000 critical cycles) and the IPC/activity of working and spinning
  // code are constants in spinlock.cc.
  explicit SpinLockWork(std::vector<int> cores);

  const std::vector<int>& Cores() const override { return cores_; }
  void RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices,
                size_t n) override;
  bool UsesAvx() const override { return false; }
  std::string Name() const override { return "spinlock"; }

  // Completed iterations per thread (useful progress).
  const std::vector<double>& iterations() const { return iterations_; }
  double total_iterations() const;

 private:
  enum class Phase { kLocal, kWaiting, kCritical };
  struct Thread {
    Phase phase = Phase::kLocal;
    double remaining_cycles = 0.0;  // In the current local/critical stretch.
  };

  // FIFO of threads waiting for the lock, as a fixed ring over the thread
  // count (a deque reallocates block-by-block as entries cycle through it,
  // which would break the zero-alloc steady-state tick).
  void WaitQueuePush(size_t thread);
  size_t WaitQueuePop();

  std::vector<int> cores_;
  std::vector<Thread> threads_;
  std::vector<size_t> wait_ring_;  // Capacity == thread count.
  size_t wait_head_ = 0;
  size_t wait_count_ = 0;
  int holder_ = -1;  // Thread index holding the lock; -1 free.
  std::vector<double> iterations_;
  // Per-slice accounting scratch, sized once in the constructor.
  std::vector<double> scratch_work_cycles_;
  std::vector<double> scratch_spin_cycles_;
};

}  // namespace papd

#endif  // SRC_SPECSIM_SPINLOCK_H_
