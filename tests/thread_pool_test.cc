// ThreadPool / ParallelFor contract tests.  The sanitizer matrix runs this
// suite under TSan, which is the real test for the completion signalling
// and the index claiming.

#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "tests/alloc_counter.h"

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

TEST(ThreadPool, ParallelForIsAllocationFree) {
  // The budget tree fans its leaves out through ParallelFor every control
  // period, so repeated calls must not touch the heap.  The lambda's one
  // reference capture fits std::function's inline storage.
  ThreadPool pool(3);
  std::vector<int> hits(7, 0);
  const long allocs_before = AllocationCount();
  for (int call = 0; call < 10; call++) {
    pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i]++; });
  }
  EXPECT_EQ(AllocationCount() - allocs_before, 0);
  for (int h : hits) {
    EXPECT_EQ(h, 10);
  }
}

// A null pool means the calling thread everywhere a ThreadPool* is taken:
// the free ParallelFor runs every index there, in index order.
TEST(ThreadPool, NullPoolRunsOnCallerInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  std::vector<std::thread::id> threads;
  ParallelFor(nullptr, 5, [&](size_t i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  ASSERT_EQ(threads.size(), 5u);
  for (const std::thread::id& t : threads) {
    EXPECT_EQ(t, caller);
  }
  bool ran = false;
  ParallelFor(nullptr, 0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolJobs, EnvOverrideParsing) {
  unsetenv("PAPD_JOBS");
  const int hardware = ThreadPool::DefaultJobs();
  EXPECT_GE(hardware, 1);
  // Values in [1, INT_MAX] are honored.
  setenv("PAPD_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultJobs(), 3);
  // Garbage, non-positive values and values an int cannot hold fall back to
  // the hardware.  Only the count is checked; no pool is built from them.
  for (const char* value : {"0", "-2", "banana", "2147483648", "99999999999999999999",
                            "4294967297"}) {
    setenv("PAPD_JOBS", value, 1);
    EXPECT_EQ(ThreadPool::DefaultJobs(), hardware) << "PAPD_JOBS=" << value;
  }
  unsetenv("PAPD_JOBS");
}

TEST(ThreadPoolJobs, ConstructorUsesDefaultWhenNonPositive) {
  setenv("PAPD_JOBS", "2", 1);
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 2);
  unsetenv("PAPD_JOBS");
}

}  // namespace
}  // namespace papd
