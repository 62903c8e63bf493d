// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulator (websearch arrivals, workload
// phase jitter, random experiment mixes) draws from a seeded Xoshiro256**
// stream so that benches and tests are reproducible bit-for-bit.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

#include "src/common/units.h"

namespace papd {

// Xoshiro256** by Blackman & Vigna (public domain reference implementation
// re-expressed here).  Seeded through SplitMix64 so that any 64-bit seed
// yields a well-mixed initial state.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform on the full 64-bit range.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() {
    // 53 high bits -> [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n).  n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Exponentially distributed with the given mean (> 0).
  double Exponential(double mean);

  // Unit-typed convenience: an exponentially distributed duration.  The
  // unwrap re-enters the double-based sampler above.
  Seconds Exponential(Seconds mean_s) { return Seconds{Exponential(mean_s.value())}; }  // papd-lint: allow(value-unwrap)

  // Normally distributed (Box-Muller).  Each uniform pair yields two
  // variates; the second is cached and returned by the next call, halving
  // the amortized cost on hot paths (workload jitter draws one per core per
  // tick).  The cached half is inline; drawing a new pair is not.
  double Normal(double mean, double stddev) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_z_;
    }
    return NormalPair(mean, stddev);
  }

  // Creates an independent stream: skips the generator ahead by 2^128 draws.
  Rng Split();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  // Draws a Box-Muller pair: returns the cosine variate, caches the sine one.
  double NormalPair(double mean, double stddev);
  void Jump();

  uint64_t s_[4];
  // Spare standard-normal variate from the last Box-Muller pair.
  bool have_spare_ = false;
  double spare_z_ = 0.0;
};

}  // namespace papd

#endif  // SRC_COMMON_RNG_H_
