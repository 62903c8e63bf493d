// Runtime dispatch for the tick kernel tables.

#include "src/cpusim/simd/tick_kernels.h"

#include <cstdlib>
#include <cstring>

namespace papd {
namespace simd {

#if defined(PAPD_SIMD_AVX2)
extern const TickKernels kAvx2Kernels;  // tick_kernels_avx2.cc
#endif

namespace {

const TickKernels* g_forced = nullptr;

const TickKernels* AutoKernels() {
  // Environment override first (PAPD_SIMD=scalar pins the reference path
  // without rebuilding); otherwise the widest table this CPU supports.
  const char* env = std::getenv("PAPD_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return &kScalarKernels;
  }
#if defined(PAPD_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    return &kAvx2Kernels;
  }
#endif
  return &kScalarKernels;
}

}  // namespace

bool Avx2Available() {
#if defined(PAPD_SIMD_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const TickKernels& ActiveKernels() {
  if (g_forced != nullptr) {
    return *g_forced;
  }
  // The CPU probe and environment read happen once per process.
  static const TickKernels* const auto_pick = AutoKernels();
  return *auto_pick;
}

bool ForceKernelsForTest(const char* name_or_null) {
  if (name_or_null == nullptr || std::strcmp(name_or_null, "auto") == 0) {
    g_forced = nullptr;
    return true;
  }
  if (std::strcmp(name_or_null, "scalar") == 0) {
    g_forced = &kScalarKernels;
    return true;
  }
#if defined(PAPD_SIMD_AVX2)
  if (std::strcmp(name_or_null, "avx2") == 0 && Avx2Available()) {
    g_forced = &kAvx2Kernels;
    return true;
  }
#endif
  return false;
}

}  // namespace simd
}  // namespace papd
