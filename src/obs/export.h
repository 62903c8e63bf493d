// Exporters for trace events and metrics.
//
// Three formats:
//   - Chrome trace_event JSON: load the file in ui.perfetto.dev (or
//     chrome://tracing).  Period begin/end become duration slices, one
//     track per shard; decisions become instants; per-app targets and
//     tree grants become counter tracks Perfetto plots as time series.
//   - CSV: the metrics registry's per-period snapshot rows, one column per
//     scalar metric — the spreadsheet-side view of a run.
//   - Metrics JSON: one flat JSON object per snapshot, histograms with
//     their buckets.

#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace papd {
namespace obs {

// Chrome trace_event JSON ("traceEvents" array form) for the given events.
// Timestamps are simulated microseconds; pid = shard, so Perfetto shows one
// process track per budget-tree node.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

// CSV time series of the registry's per-period snapshots: header row of
// "t_s" + scalar metric names, one data row per Snapshot() call.  Rows
// taken before a metric was registered are padded with 0.
std::string MetricsCsv(const MetricsRegistry& registry);

// Flat JSON object: scalar metrics as numbers, histograms as
// {"count": N, "sum": S, "buckets": [[upper_bound, count], ...]}.
std::string MetricsJson(const MetricsSnapshot& metrics);

// Writes `content` to `path`; returns false (and logs) when the open, the
// write or the closing flush fails.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace obs
}  // namespace papd

#endif  // SRC_OBS_EXPORT_H_
