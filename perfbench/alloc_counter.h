// Global operator new counter (alloc_counter.cc replaces the global
// allocation functions) for the benchmark's zero-allocation checks.

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

namespace papd_bench {

// Calls to any form of global operator new since program start.
long AllocationCount();

}  // namespace papd_bench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
