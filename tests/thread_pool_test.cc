// ThreadPool / ParallelFor contract tests.  The sanitizer matrix runs this
// suite under TSan, which is the real test for the completion-signalling
// and queue locking.

#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace papd {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, ParallelForZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleTaskRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.ParallelFor(1, [&seen](size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ParallelForPropagatesLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(100, [](size_t i) {
      if (i == 17 || i == 63) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 17");
  }
}

TEST(ThreadPool, ExceptionDoesNotAbortOtherTasks) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(50,
                                [&completed](size_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("first");
                                  }
                                  completed++;
                                }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 49);
}

TEST(ThreadPool, NestedParallelForFromWorkerIsRejected) {
  ThreadPool pool(2);
  bool threw = false;
  pool.ParallelFor(4, [&pool, &threw](size_t i) {
    if (i == 0) {
      // A fixed-size pool deadlocks once workers block on children, so
      // nested use must throw rather than hang.
      try {
        pool.ParallelFor(4, [](size_t) {});
      } catch (const std::logic_error&) {
        threw = true;
      }
    }
  });
  EXPECT_TRUE(threw);
}

TEST(ThreadPool, SubmitToDifferentPoolFromWorkerIsAllowed) {
  // Only nesting into the *same* pool is rejected: a worker of `outer` may
  // fan out on `inner`.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> count{0};
  outer.ParallelFor(4, [&inner, &count](size_t) {
    inner.ParallelFor(3, [&count](size_t) { count++; });
  });
  EXPECT_EQ(count.load(), 12);
}

TEST(ShardTeam, RunOnceCoversEveryShardExactlyOnce) {
  // Disjoint per-shard slots: no atomics needed, the RunOnce barrier is the
  // synchronization under test (TSan verifies it in the sanitizer matrix).
  std::vector<int> counts(4, 0);
  ShardTeam team(4, [&counts](int shard) { counts[static_cast<size_t>(shard)]++; });
  EXPECT_EQ(team.shards(), 4);
  team.RunOnce();
  for (int c : counts) {
    EXPECT_EQ(c, 1);
  }
}

TEST(ShardTeam, PersistsAcrossRuns) {
  // The team is built once and reused; each RunOnce fires every shard's body
  // exactly once more, and per-shard partial sums stay consistent.
  const std::vector<int> values = {3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<int> partial(3, 0);
  ShardTeam team(3, [&values, &partial](int shard) {
    const size_t n = values.size();
    const auto s = static_cast<size_t>(shard);
    int sum = 0;
    for (size_t i = n * s / 3; i < n * (s + 1) / 3; i++) {
      sum += values[i];
    }
    partial[s] += sum;
  });
  const int total = std::accumulate(values.begin(), values.end(), 0);
  for (int run = 1; run <= 5; run++) {
    team.RunOnce();
    EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0), total * run);
  }
}

TEST(ShardTeam, SingleShard) {
  int fired = 0;
  ShardTeam team(1, [&fired](int shard) {
    EXPECT_EQ(shard, 0);
    fired++;
  });
  team.RunOnce();
  team.RunOnce();
  EXPECT_EQ(fired, 2);
}

TEST(ShardTeam, DestructionWithoutRunIsClean) {
  // Workers park on construction; destroying an idle team must join them
  // without ever dispatching the body.
  int fired = 0;
  { ShardTeam team(3, [&fired](int) { fired++; }); }
  EXPECT_EQ(fired, 0);
}

TEST(ThreadPoolJobs, EnvOverrideParsing) {
  // Positive values are honored.
  setenv("PAPD_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultJobs(), 3);
  // Garbage and non-positive values fall back to the hardware.
  setenv("PAPD_JOBS", "0", 1);
  EXPECT_GE(ThreadPool::DefaultJobs(), 1);
  setenv("PAPD_JOBS", "-2", 1);
  EXPECT_GE(ThreadPool::DefaultJobs(), 1);
  setenv("PAPD_JOBS", "banana", 1);
  EXPECT_GE(ThreadPool::DefaultJobs(), 1);
  unsetenv("PAPD_JOBS");
  EXPECT_GE(ThreadPool::DefaultJobs(), 1);
}

TEST(ThreadPoolJobs, ConstructorUsesDefaultWhenNonPositive) {
  setenv("PAPD_JOBS", "2", 1);
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 2);
  unsetenv("PAPD_JOBS");
}

}  // namespace
}  // namespace papd
