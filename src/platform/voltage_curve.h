// Voltage/frequency operating curve.
//
// DVFS power scaling (paper Section 2.1: P_dyn proportional to V^2 * f)
// requires a voltage for every programmable frequency.  Real parts encode
// this in fused VID tables; we model it as a piecewise-linear curve through
// a small set of published operating points.

#ifndef SRC_PLATFORM_VOLTAGE_CURVE_H_
#define SRC_PLATFORM_VOLTAGE_CURVE_H_

#include <vector>

#include "src/common/units.h"

namespace papd {

class VoltageCurve {
 public:
  struct Point {
    Mhz mhz;
    Volts volts;

    bool operator==(const Point&) const = default;
  };

  // Points must be strictly increasing in frequency; at least one required.
  explicit VoltageCurve(std::vector<Point> points);

  // Linear interpolation between points; clamped at the ends.
  Volts At(Mhz mhz) const;

  Volts min_volts() const { return points_.front().volts; }
  Volts max_volts() const { return points_.back().volts; }

  // Compares every point, the interior ones included.
  bool operator==(const VoltageCurve&) const = default;

 private:
  std::vector<Point> points_;
};

}  // namespace papd

#endif  // SRC_PLATFORM_VOLTAGE_CURVE_H_
