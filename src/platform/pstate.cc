#include "src/platform/pstate.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace papd {

PStateTable::PStateTable(Mhz min_mhz, Mhz max_mhz, Mhz step_mhz) : step_mhz_(step_mhz) {
  PAPD_CHECK_GT(step_mhz, Mhz{0.0});
  PAPD_CHECK_GT(min_mhz, Mhz{0.0});
  PAPD_CHECK_GE(max_mhz, min_mhz);
  // Build descending so index 0 == P0 == fastest.
  const int steps = static_cast<int>(std::round((max_mhz - min_mhz) / step_mhz));
  for (int i = steps; i >= 0; i--) {
    freqs_.push_back(min_mhz + step_mhz * i);
  }
}

// The table's grid is anchored at min_mhz, so quantization delegates to the
// zero-anchored helpers in src/common/units.h on the offset from min_mhz.

Mhz PStateTable::QuantizeDown(Mhz mhz) const {
  if (mhz <= min_mhz()) {
    return min_mhz();
  }
  if (mhz >= max_mhz()) {
    return max_mhz();
  }
  return min_mhz() + QuantizeDownToGrid(mhz - min_mhz(), step_mhz_);
}

Mhz PStateTable::QuantizeUp(Mhz mhz) const {
  if (mhz <= min_mhz()) {
    return min_mhz();
  }
  if (mhz >= max_mhz()) {
    return max_mhz();
  }
  return min_mhz() + QuantizeUpToGrid(mhz - min_mhz(), step_mhz_);
}

Mhz PStateTable::QuantizeNearest(Mhz mhz) const {
  if (mhz <= min_mhz()) {
    return min_mhz();
  }
  if (mhz >= max_mhz()) {
    return max_mhz();
  }
  return min_mhz() + QuantizeNearestToGrid(mhz - min_mhz(), step_mhz_);
}

size_t PStateTable::IndexOf(Mhz mhz) const {
  const Mhz q{QuantizeNearest(mhz)};
  const double from_top = (max_mhz() - q) / step_mhz_;
  return static_cast<size_t>(std::round(from_top));
}

bool PStateTable::OnGrid(Mhz mhz) const {
  if (mhz < min_mhz() - Mhz{1e-6} || mhz > max_mhz() + Mhz{1e-6}) {
    return false;
  }
  return OnFrequencyGrid(mhz - min_mhz(), step_mhz_);
}

}  // namespace papd
