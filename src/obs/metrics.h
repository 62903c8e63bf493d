// Metrics registry: named counters, gauges and fixed-bucket histograms,
// snapshotted into a per-period time series.
//
// The registry is the one source of truth for operational counters — the
// daemon's degradation bookkeeping and turbostat's telemetry-validation
// counts both live here, so the two can never disagree (they used to be
// tracked separately and drift).  Metrics are registered lazily by name;
// Get* returns a stable pointer the owner caches and bumps on the hot path
// (one add/store, no map lookup).
//
// Snapshot(t) appends the current value of every scalar metric (counters
// and gauges) as one time-series row; the daemon calls it once per control
// period, and these rows are its one per-period series (the CSV exporter's
// per-period trace).  Histograms are not part of the row (they are
// distributions, not time-points) and are exported whole.
//
// A registry belongs to one component (one PowerDaemon); it is not
// thread-safe.  Budget-tree leaves each own their daemon's registry, so
// leaves stepped in parallel never share one.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace papd {
namespace obs {

class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  // Metrics are unit-erased doubles by design (one exporter schema); this
  // is the sanctioned bridge for typed quantities, mirroring
  // obs::ToPayload for trace events.
  template <class Tag>
  void Set(Quantity<Tag> q) {
    Set(q.value());
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed upper-bound buckets plus an implicit +inf overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);
  // Unit-erasing bridge; see Gauge::Set.
  template <class Tag>
  void Observe(Quantity<Tag> q) {
    Observe(q.value());
  }

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  // counts().size() == upper_bounds().size() + 1 (last = overflow).
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t total() const { return total_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> upper_bounds_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  double sum_ = 0.0;
};

// One exported metric, by value (safe to keep after the registry dies —
// ScenarioResult carries these out of the run).
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  // Counter/gauge: the value.  Histogram: the sum of observations.
  double value = 0.0;
  // Histogram only.
  uint64_t count = 0;
  std::vector<double> upper_bounds;
  std::vector<uint64_t> bucket_counts;
};

using MetricsSnapshot = std::vector<MetricValue>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Lazily registers; returns a stable pointer.  Registering the same name
  // twice returns the same metric; a name registered as one kind must not
  // be re-requested as another.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, std::vector<double> upper_bounds);

  // Appends one time-series row with the current value of every scalar
  // metric, in registration order.  Metrics registered after the first
  // snapshot extend later rows; the CSV exporter pads earlier rows.
  void Snapshot(Seconds t);

  struct Row {
    Seconds t{0.0};
    std::vector<double> values;  // Parallel to scalar_names() at snapshot time.
  };
  const std::vector<Row>& rows() const { return rows_; }
  // Scalar (counter + gauge) metric names, registration order.
  const std::vector<std::string>& scalar_names() const { return scalar_names_; }

  // Everything, by value.
  MetricsSnapshot Export() const;

  // The scalar metric's current value, or `fallback` when not registered.
  double ScalarValue(const std::string& name, double fallback = 0.0) const;

 private:
  struct Scalar {
    std::string name;
    std::unique_ptr<Counter> counter;  // Exactly one of the two is set.
    std::unique_ptr<Gauge> gauge;
    double value() const {
      return counter != nullptr ? static_cast<double>(counter->value()) : gauge->value();
    }
  };
  struct NamedHistogram {
    std::string name;
    std::unique_ptr<Histogram> histogram;
  };

  Scalar* FindScalar(const std::string& name);
  const Scalar* FindScalar(const std::string& name) const;

  std::vector<Scalar> scalars_;
  std::vector<std::string> scalar_names_;
  std::vector<NamedHistogram> histograms_;
  std::vector<Row> rows_;
};

}  // namespace obs
}  // namespace papd

#endif  // SRC_OBS_METRICS_H_
