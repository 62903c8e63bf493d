// The replacement allocation functions live alone in this file, so no
// new-expression is compiled next to the malloc/free bodies they forward to
// (GCC's -Wmismatched-new-delete pairs them otherwise).

#include "tests/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> g_allocs{0};
}  // namespace

namespace papd {
long AllocationCount() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace papd

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // malloc(0) may return null; a size-0 operator new must not.
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
