// Shared by the ctest perf gates (soa_equivalence_test, cluster_scale_test):
// whether this build can hold a wall-clock floor.  They time with
// bench/perf_util.h's perf::NowS().

#ifndef TESTS_PERF_GATE_H_
#define TESTS_PERF_GATE_H_

namespace papd {

// True in optimized builds without sanitizers.  Sanitizers and -O0 slow the
// simulator by integer factors, so there the perf gates keep their
// deterministic assertions and skip their wall-clock floors.
// tests/CMakeLists.txt defines PAPD_SANITIZED for any PAPD_SANITIZE build.
#if defined(__OPTIMIZE__) && !defined(PAPD_SANITIZED)
inline constexpr bool kWallClockGates = true;
#else
inline constexpr bool kWallClockGates = false;
#endif

}  // namespace papd

#endif  // TESTS_PERF_GATE_H_
