// Minimal benchmark timing utilities shared by perf_harness, the micro
// benchmarks and the ctest perf gates.  Replaces the google-benchmark
// dependency with the same discipline: steady-clock timing, one discarded
// warmup batch, and batch sizes calibrated until a run lasts at least
// min_time seconds.
//
// Two entry points:
//   - perf::MeasureLoop(body, min_time_s): time a callable representing one
//     iteration; returns ns/iter.
//   - PAPD_PERF_BENCH(fn) + perf::PerfMain(argc, argv): register
//     `void fn(perf::State&)` benchmarks written in the
//     `for (auto _ : state)` style and run them from main().

#ifndef BENCH_PERF_UTIL_H_
#define BENCH_PERF_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace papd {
namespace perf {

// Keeps `value` observable so the optimizer cannot delete the computation
// that produced it.
template <class T>
inline void DoNotOptimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

inline Seconds NowS() {
  return Seconds{
      std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
          .count()};
}

struct Result {
  double ns_per_iter = 0.0;
  uint64_t iters = 0;
  Seconds elapsed_s{0.0};
};

// Times `body` (one iteration per call).  Runs one small warmup batch, then
// grows the batch size until a timed batch lasts at least min_time_s.
template <class F>
Result MeasureLoop(F&& body, Seconds min_time_s = Seconds{0.2}) {
  // Warmup: touch caches, fault in pages, settle branch predictors.
  for (int i = 0; i < 3; i++) {
    body();
  }
  uint64_t iters = 16;
  for (;;) {
    const Seconds start = NowS();
    for (uint64_t i = 0; i < iters; i++) {
      body();
    }
    const Seconds elapsed = NowS() - start;
    if (elapsed >= min_time_s) {
      return Result{elapsed.value() * 1e9 / static_cast<double>(iters), iters, elapsed};
    }
    // Grow towards the target with headroom; cap the growth factor so one
    // noisy fast batch cannot overshoot by orders of magnitude.
    double factor = elapsed > Seconds{0.0} ? 1.4 * (min_time_s / elapsed) : 10.0;
    if (factor > 10.0) {
      factor = 10.0;
    }
    iters = static_cast<uint64_t>(static_cast<double>(iters) * factor) + 1;
  }
}

// Iteration state for registered benchmarks, google-benchmark style:
//
//   void BM_Foo(perf::State& state) {
//     ... setup ...
//     for (auto _ : state) { ... one iteration ... }
//   }
//   PAPD_PERF_BENCH(BM_Foo);
//
// Timing covers exactly the range-for loop; setup before it is free.
class State {
 public:
  explicit State(uint64_t iters) : iters_(iters), remaining_(iters) {}

  // Non-trivial lifecycle so `for (auto _ : state)` trips neither
  // -Wunused-variable nor -Wunused-but-set-variable.
  struct Tick {
    Tick() {}
    ~Tick() {}
  };

  class iterator {
   public:
    explicit iterator(State* s) : s_(s) {}
    bool operator!=(const iterator&) {
      if (s_->remaining_ > 0) {
        return true;
      }
      s_->stop_s_ = NowS();
      return false;
    }
    void operator++() { s_->remaining_--; }
    Tick operator*() const { return Tick(); }

   private:
    State* s_;
  };

  iterator begin() {
    remaining_ = iters_;
    start_s_ = NowS();
    return iterator(this);
  }
  iterator end() { return iterator(this); }

  uint64_t iterations() const { return iters_; }
  Seconds elapsed_s() const { return stop_s_ - start_s_; }

 private:
  uint64_t iters_;
  uint64_t remaining_;
  Seconds start_s_{0.0};
  Seconds stop_s_{0.0};
};

using BenchFn = void (*)(State&);

struct Registration {
  const char* name;
  BenchFn fn;
};

inline std::vector<Registration>& Registry() {
  static std::vector<Registration> registry;
  return registry;
}

struct Registrar {
  Registrar(const char* name, BenchFn fn) { Registry().push_back({name, fn}); }
};

#define PAPD_PERF_BENCH(fn) \
  static const ::papd::perf::Registrar papd_perf_reg_##fn(#fn, fn)

// Runs one registered benchmark with warmup + calibration (same discipline
// as MeasureLoop, batching whole State runs).
inline Result RunBench(BenchFn fn, Seconds min_time_s = Seconds{0.2}) {
  {
    State warmup(8);
    fn(warmup);
  }
  uint64_t iters = 16;
  for (;;) {
    State state(iters);
    fn(state);
    const Seconds elapsed = state.elapsed_s();
    if (elapsed >= min_time_s) {
      return Result{elapsed.value() * 1e9 / static_cast<double>(iters), iters, elapsed};
    }
    double factor = elapsed > Seconds{0.0} ? 1.4 * (min_time_s / elapsed) : 10.0;
    if (factor > 10.0) {
      factor = 10.0;
    }
    iters = static_cast<uint64_t>(static_cast<double>(iters) * factor) + 1;
  }
}

// Driver for binaries consisting of registered benchmarks.
// Flags: --filter=<substring>  --min_time=<seconds>
inline int PerfMain(int argc, char** argv) {
  std::string filter;
  Seconds min_time_s{0.2};
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--filter=", 9) == 0) {
      filter = arg + 9;
    } else if (std::strncmp(arg, "--min_time=", 11) == 0) {
      min_time_s = Seconds{std::strtod(arg + 11, nullptr)};
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  std::printf("%-36s %14s %12s\n", "Benchmark", "Time (ns)", "Iterations");
  std::printf("%s\n", std::string(64, '-').c_str());
  for (const Registration& reg : Registry()) {
    if (!filter.empty() && std::string(reg.name).find(filter) == std::string::npos) {
      continue;
    }
    const Result r = RunBench(reg.fn, min_time_s);
    std::printf("%-36s %14.1f %12llu\n", reg.name, r.ns_per_iter,
                static_cast<unsigned long long>(r.iters));
  }
  return 0;
}

}  // namespace perf
}  // namespace papd

#endif  // BENCH_PERF_UTIL_H_
