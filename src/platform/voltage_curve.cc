#include "src/platform/voltage_curve.h"

#include <cstddef>

#include "src/common/check.h"

namespace papd {

VoltageCurve::VoltageCurve(std::vector<Point> points) : points_(std::move(points)) {
  PAPD_CHECK(!points_.empty());
  for (size_t i = 1; i < points_.size(); i++) {
    PAPD_CHECK_GT(points_[i].mhz, points_[i - 1].mhz) << " voltage curve point " << i;
  }
}

Volts VoltageCurve::At(Mhz mhz) const {
  if (mhz <= points_.front().mhz) {
    return points_.front().volts;
  }
  if (mhz >= points_.back().mhz) {
    return points_.back().volts;
  }
  for (size_t i = 1; i < points_.size(); i++) {
    if (mhz <= points_[i].mhz) {
      const Point& a = points_[i - 1];
      const Point& b = points_[i];
      const double t = (mhz - a.mhz) / (b.mhz - a.mhz);
      return a.volts + t * (b.volts - a.volts);
    }
  }
  return points_.back().volts;
}

}  // namespace papd
