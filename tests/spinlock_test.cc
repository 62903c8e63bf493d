// Tests for the lock-contended multithreaded workload.

#include <gtest/gtest.h>

#include <vector>

#include "src/specsim/spinlock.h"

namespace papd {
namespace {

std::vector<int> FourCores() { return {0, 1, 2, 3}; }

// One 1 ms tick through the span entry point; returns the per-core slices.
std::vector<WorkSlice> Tick(SpinLockWork& work, const std::vector<Mhz>& freqs) {
  std::vector<WorkSlice> slices(freqs.size());
  work.RunBatch(Seconds{0.001}, freqs.data(), slices.data(), freqs.size());
  return slices;
}

TEST(SpinLock, SingleThreadUncontended) {
  // One thread never waits: iteration time = (local + critical) / f.
  SpinLockWork work({0});
  const std::vector<Mhz> freqs = {Mhz{2000.0}};
  for (int i = 0; i < 1000; i++) {
    Tick(work, freqs);
  }
  const double expected = 1.0 /* s */ * 2000e6 / (40000.0 + 20000.0);
  EXPECT_NEAR(work.total_iterations(), expected, expected * 0.02);
}

TEST(SpinLock, ContendedThroughputBoundByLock) {
  // Four threads, equal frequency: with c = 20000 critical-section cycles
  // and the lock serial, system throughput <= f / c.
  SpinLockWork work(FourCores());
  const std::vector<Mhz> freqs(4, Mhz{2000.0});
  for (int i = 0; i < 1000; i++) {
    Tick(work, freqs);
  }
  const double lock_bound = 1.0 * 2000e6 / 20000.0;
  EXPECT_LE(work.total_iterations(), lock_bound * 1.02);
  EXPECT_GT(work.total_iterations(), lock_bound * 0.5);
}

TEST(SpinLock, FairFifoHandoff) {
  SpinLockWork work(FourCores());
  const std::vector<Mhz> freqs(4, Mhz{2000.0});
  for (int i = 0; i < 2000; i++) {
    Tick(work, freqs);
  }
  const auto& its = work.iterations();
  for (size_t i = 1; i < its.size(); i++) {
    EXPECT_NEAR(its[i], its[0], its[0] * 0.05 + 2.0);
  }
}

TEST(SpinLock, ConvoyEffect) {
  // Throttling ONE core drags the whole system down by far more than a
  // quarter of the frequency loss: every fourth critical section runs at
  // the slow core's speed and everyone else queues behind it.
  SpinLockWork uniform(FourCores());
  SpinLockWork convoy(FourCores());
  const std::vector<Mhz> fast(4, Mhz{3000.0});
  std::vector<Mhz> skewed(4, Mhz{3000.0});
  skewed[0] = Mhz{800.0};
  for (int i = 0; i < 2000; i++) {
    Tick(uniform, fast);
    Tick(convoy, skewed);
  }
  const double uniform_rate = uniform.total_iterations();
  const double convoy_rate = convoy.total_iterations();
  // One of four cores lost 2200 of the 12000 total MHz (18.3%); purely
  // proportional scaling would leave 81.7% of the throughput.  The convoy
  // (fast threads queueing behind the slow core's stretched critical
  // sections) costs measurably more than that.
  EXPECT_LT(convoy_rate, uniform_rate * 0.80);
  EXPECT_GT(convoy_rate, uniform_rate * 0.55);  // But it is not a collapse.
}

TEST(SpinLock, SpinningInflatesIps) {
  // The paper's warning: the fast cores' retired-instruction rate stays
  // high while their useful progress collapses.
  SpinLockWork work(FourCores());
  std::vector<Mhz> skewed(4, Mhz{3000.0});
  skewed[0] = Mhz{800.0};
  double fast_core_instr = 0.0;
  for (int i = 0; i < 2000; i++) {
    const auto slices = Tick(work, skewed);
    fast_core_instr += slices[1].instructions;
  }
  const double fast_core_ips = fast_core_instr / 2.0;
  // Core 1 retires near its full rate (3e9) thanks to spinning...
  EXPECT_GT(fast_core_ips, 2.4e9);
  // ...but completes far fewer iterations than its IPS suggests: the
  // useful rate per thread is bounded by the convoyed lock.
  const double useful_fraction =
      work.iterations()[1] * (40000.0 + 20000.0) / (fast_core_ips * 2.0);
  EXPECT_LT(useful_fraction, 0.75);
}

TEST(SpinLock, BusyFractionFullWhenSpinning) {
  SpinLockWork work(FourCores());
  std::vector<Mhz> skewed(4, Mhz{3000.0});
  skewed[0] = Mhz{800.0};
  for (int i = 0; i < 500; i++) {
    Tick(work, skewed);
  }
  const auto slices = Tick(work, skewed);
  for (const WorkSlice& s : slices) {
    EXPECT_GT(s.busy_fraction, 0.95);  // Spinners look 100% busy.
  }
}

TEST(SpinLock, ZeroFrequencyCoreStalls) {
  SpinLockWork work({0, 1});
  const std::vector<Mhz> freqs = {Mhz{2000.0}, Mhz{0.0}};
  for (int i = 0; i < 500; i++) {
    Tick(work, freqs);
  }
  EXPECT_GT(work.iterations()[0], 0.0);
  EXPECT_DOUBLE_EQ(work.iterations()[1], 0.0);
}

}  // namespace
}  // namespace papd
