// Global allocation counter for zero-allocation assertions.
//
// Linking alloc_counter.cc replaces the global operator new/delete family
// for the whole binary, and every form of operator new bumps one counter.
// Only deltas are meaningful: static initialization, gtest bookkeeping and
// setup allocate too.

#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

namespace papd {

// Calls to any form of global operator new since program start.
long AllocationCount();

}  // namespace papd

#endif  // TESTS_ALLOC_COUNTER_H_
