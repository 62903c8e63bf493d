#include "src/specsim/spinlock.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace papd {
namespace {

// Cycles of uncontended local work per iteration.
constexpr double kLocalCycles = 40000.0;
// Cycles holding the global lock per iteration.
constexpr double kCriticalCycles = 20000.0;
// Retired instructions per cycle in local/critical code.
constexpr double kIpc = 1.0;
// Retired instructions per cycle while spin-waiting (pause loops retire
// fast).
constexpr double kSpinIpc = 1.0;
// Dynamic-power activity while working / spinning.
constexpr double kActivity = 1.0;
constexpr double kSpinActivity = 0.8;

}  // namespace

SpinLockWork::SpinLockWork(std::vector<int> cores) : cores_(std::move(cores)) {
  PAPD_CHECK(!cores_.empty());
  threads_.resize(cores_.size());
  iterations_.assign(cores_.size(), 0.0);
  wait_ring_.assign(cores_.size(), 0);
  scratch_work_cycles_.assign(cores_.size(), 0.0);
  scratch_spin_cycles_.assign(cores_.size(), 0.0);
  for (Thread& t : threads_) {
    t.phase = Phase::kLocal;
    t.remaining_cycles = kLocalCycles;
  }
}

void SpinLockWork::WaitQueuePush(size_t thread) {
  PAPD_DCHECK_LT(wait_count_, wait_ring_.size());
  wait_ring_[(wait_head_ + wait_count_) % wait_ring_.size()] = thread;
  wait_count_++;
}

size_t SpinLockWork::WaitQueuePop() {
  PAPD_DCHECK_GT(wait_count_, 0u);
  const size_t thread = wait_ring_[wait_head_];
  wait_head_ = (wait_head_ + 1) % wait_ring_.size();
  wait_count_--;
  return thread;
}

// PAPD_HOT
void SpinLockWork::RunBatch(Seconds dt, const Mhz* freqs_mhz,
                            WorkSlice* out_slices, size_t n) {
  PAPD_DCHECK_EQ(n, cores_.size());

  // Per-slice accounting.
  double* work_cycles = scratch_work_cycles_.data();
  double* spin_cycles = scratch_spin_cycles_.data();
  std::fill(scratch_work_cycles_.begin(), scratch_work_cycles_.end(), 0.0);
  std::fill(scratch_spin_cycles_.begin(), scratch_spin_cycles_.end(), 0.0);

  // Event-driven: repeatedly advance to the next phase completion.  A
  // thread in kLocal or kCritical finishes after remaining/f seconds; a
  // waiting thread spins until the lock reaches it.
  Seconds remaining_s{dt};
  for (int guard = 0; guard < 100000 && remaining_s > Seconds{1e-12}; guard++) {
    // Next completion among running threads.
    Seconds next{remaining_s};
    for (size_t i = 0; i < n; i++) {
      const Thread& t = threads_[i];
      if (t.phase == Phase::kWaiting || freqs_mhz[i] <= Mhz{0.0}) {
        continue;
      }
      next = std::min(next, SecondsForCycles(t.remaining_cycles, freqs_mhz[i]));
    }

    // Advance all threads by `next` seconds.
    for (size_t i = 0; i < n; i++) {
      Thread& t = threads_[i];
      const double cycles = freqs_mhz[i] * kHzPerMhz * next;
      switch (t.phase) {
        case Phase::kWaiting:
          spin_cycles[i] += cycles;
          break;
        case Phase::kLocal:
        case Phase::kCritical:
          work_cycles[i] += std::min(cycles, t.remaining_cycles);
          t.remaining_cycles -= cycles;
          break;
      }
    }
    remaining_s -= next;

    // Process completions (remaining <= 0).
    for (size_t i = 0; i < n; i++) {
      Thread& t = threads_[i];
      if (t.phase == Phase::kLocal && t.remaining_cycles <= 1e-9) {
        t.phase = Phase::kWaiting;
        WaitQueuePush(i);
      } else if (t.phase == Phase::kCritical && t.remaining_cycles <= 1e-9) {
        t.phase = Phase::kLocal;
        t.remaining_cycles = kLocalCycles;
        iterations_[i] += 1.0;
        holder_ = -1;
      }
    }
    // FIFO lock handoff.
    if (holder_ < 0 && wait_count_ > 0) {
      const size_t next_holder = WaitQueuePop();
      holder_ = static_cast<int>(next_holder);
      threads_[next_holder].phase = Phase::kCritical;
      threads_[next_holder].remaining_cycles = kCriticalCycles;
    }
  }

  for (size_t i = 0; i < n; i++) {
    const double total = work_cycles[i] + spin_cycles[i];
    const double capacity = freqs_mhz[i] * kHzPerMhz * dt;
    WorkSlice& s = out_slices[i];
    s.instructions = work_cycles[i] * kIpc + spin_cycles[i] * kSpinIpc;
    s.busy_fraction = capacity > 0.0 ? std::min(1.0, total / capacity) : 0.0;
    s.activity = 0.0;
    if (total > 0.0) {
      s.activity = (kActivity * work_cycles[i] + kSpinActivity * spin_cycles[i]) / total;
    }
    s.avx_fraction = 0.0;
  }
}

double SpinLockWork::total_iterations() const {
  double sum = 0.0;
  for (double it : iterations_) {
    sum += it;
  }
  return sum;
}

}  // namespace papd
