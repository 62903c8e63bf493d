#include "src/common/rng.h"

#include <cmath>

namespace papd {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(&sm);
  }
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint64_t Rng::NextBelow(uint64_t n) {
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::Exponential(double mean) {
  // Inverse CDF; guard against log(0).
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

double Rng::NormalPair(double mean, double stddev) {
  // Box-Muller yields two independent variates per uniform pair; keep the
  // sine one for the next call.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_z_ = r * std::sin(theta);
  have_spare_ = true;
  return mean + stddev * r * std::cos(theta);
}

void Rng::Jump() {
  static constexpr uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                       0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  uint64_t s0 = 0;
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  uint64_t s3 = 0;
  for (uint64_t jump : kJump) {
    for (int b = 0; b < 64; b++) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      NextU64();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

Rng Rng::Split() {
  Rng child = *this;
  // Don't let both streams replay the same pending Box-Muller spare.
  child.have_spare_ = false;
  child.Jump();
  // Advance ourselves as well so repeated Split() calls yield distinct streams.
  NextU64();
  return child;
}

}  // namespace papd
