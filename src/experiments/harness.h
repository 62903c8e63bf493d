// Experiment harness: builds a platform, pins workloads, runs a policy (or
// bare RAPL), and reduces the run to the statistics the paper reports.
//
// Every bench binary is a thin driver over RunScenario / RunWebsearch plus
// table formatting; keeping the execution logic here guarantees all
// experiments measure the same way (identical warmup handling, counter
// windows, and normalization baselines).

#ifndef SRC_EXPERIMENTS_HARNESS_H_
#define SRC_EXPERIMENTS_HARNESS_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/cpusim/package.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/platform_spec.h"
#include "src/policy/daemon.h"
#include "src/specsim/websearch.h"

namespace papd {

// One application slot in a scenario; pinned to cores 0..n-1 in order.
struct AppSetup {
  std::string profile;
  double shares = 1.0;
  bool high_priority = false;

  bool operator==(const AppSetup&) const = default;
};

// Daemon-facing behavior knobs, grouped (these used to be loose flags
// scattered across ScenarioConfig).
struct DaemonOptions {
  // Run the daemon's invariant auditor (DaemonConfig::audit).
  bool audit = true;
  // HWP-style highest-useful-frequency hints (DaemonConfig::use_hwp_hints).
  bool hwp_hints = false;
  // Daemon degradation ladder.  false = the naive pre-hardening daemon (raw
  // telemetry, unconditional rewrites) — the fault ablation's baseline.
  bool degrade = true;
  // Telemetry/write fault schedule (MsrFile::EnableFaults); inactive when
  // no probability is set.
  FaultPlan faults;
};

// Observability for one run (src/obs).
struct ObsOptions {
  // Record trace events.  With no external `sink` the run creates its own
  // TraceRecorder (default per-thread ring capacity) and returns the events
  // in ScenarioResult::trace_events.
  bool trace = false;
  // External sink; when set, events go here instead of the internal
  // recorder (tests assert on emitted events through this).
  ObsSink* sink = nullptr;
  // When non-empty, the run writes a Chrome trace_event JSON (internal
  // recorder only) / metrics CSV to this path before returning.
  std::string chrome_trace_path;
  std::string metrics_csv_path;
};

// The grouped per-run options every experiment entry point takes.
struct RunOptions {
  DaemonOptions daemon;
  ObsOptions obs;
  // Tick-engine policy (Package::SetTickPolicy).  kMultiRate trades bitwise
  // reproducibility for speed on steady fleets; results stay within the
  // statistical tolerance pinned by tests/multirate_test.cc.
  TickOptions tick;
};

struct ScenarioConfig {
  PlatformSpec platform;
  std::vector<AppSetup> apps;
  PolicyKind policy = PolicyKind::kRaplOnly;
  Watts limit_w{85.0};
  // Statistics are collected over [warmup_s, warmup_s + measure_s].
  Seconds warmup_s{20.0};
  Seconds measure_s{120.0};
  static constexpr Seconds daemon_period_s{1.0};
  Mhz static_mhz{0.0};  // PolicyKind::kStatic.
  PriorityPolicy::Options priority;
  uint64_t seed = 42;
  // Grouped daemon + observability options.  (The flat hwp_hints / audit /
  // faults / degrade fields and their EffectiveRun() shim are gone; set
  // run.daemon.* directly.)
  RunOptions run;
};

// The one place ScenarioConfig maps onto the daemon's configuration
// (callers that build their own PowerDaemon use this instead of copying
// fields by hand).  The trace sink is left unset; RunScenario wires it.
DaemonConfig ToDaemonConfig(const ScenarioConfig& config);

struct AppResult {
  std::string name;
  int cpu = 0;
  bool high_priority = false;
  double shares = 1.0;
  Ips avg_ips{0.0};
  // Performance normalized to the app running alone, unconstrained, at the
  // maximum P-state (the paper's "standalone at 85 W" baseline).
  double norm_perf = 0.0;
  Mhz avg_active_mhz{0.0};
  double avg_busy = 0.0;
  Watts avg_core_w{0.0};
  bool starved = false;
  // Fraction of the scenario total each app used; see AddResourceShares.
  double share_of_freq = 0.0;
  double share_of_perf = 0.0;
  double share_of_power = 0.0;
};

// The reporting surface every experiment kind shares: scenario runs,
// websearch runs, and fleet runs all reduce to one RunSummary, so sweep
// serialization (sweep.cc) is written once.  Concrete result types derive
// from this and add only their kind-specific fields.
struct RunSummary {
  Watts avg_pkg_w{0.0};
  // Worst 1-second average package power inside the measurement window,
  // computed from ground-truth energy counters (not daemon telemetry) so
  // fault runs report the real overshoot even when samples are corrupted.
  Watts max_pkg_w{0.0};
  Seconds measured_s{0.0};
  // Package energy over the measurement window (avg_pkg_w * measured_s).
  Joules energy_j{0.0};
  // Per-app performance breakdown; empty for runs without per-app counters.
  std::vector<AppResult> apps;
  // Response-latency percentiles; zero for runs with no latency-sensitive
  // work.
  Seconds p50_latency{0.0};
  Seconds p90_latency{0.0};
  Seconds p99_latency{0.0};
  size_t completed_requests = 0;
  // Degradation bookkeeping from the daemon and injection counts from the
  // fault plan (all zero for clean runs).
  DaemonFaultStats fault_stats;
  FaultCounts fault_counts;
  // End-of-run snapshot of the run's metrics registry (counters, gauges,
  // histograms).
  obs::MetricsSnapshot metrics;
  // Every trace event recorded, time-sorted.  Filled only when
  // run.obs.trace is set without an external sink.
  std::vector<obs::TraceEvent> trace_events;
};

// Thin typed wrapper: everything a scenario reports is the shared summary.
struct ScenarioResult : RunSummary {};

// Runs a scenario to steady state and reports per-app averages over the
// measurement window.
ScenarioResult RunScenario(const ScenarioConfig& config);

// Fills share_of_* from the scenario totals (the paper's "percent of total
// resource used" visualization, Figures 10-11).
void AddResourceShares(ScenarioResult* result);

// Standalone baseline: the app alone on core 0 of the platform,
// unconstrained, requesting the maximum P-state.  Cached per (platform
// spec, profile): a spec that differs from a cached one in any field, even
// under the same name, gets its own run.  Returned by value so the cache's
// lock discipline stays internal.
struct StandaloneBaseline {
  Ips ips;
  Mhz active_mhz;
  Watts pkg_w;
  Watts core_w;
};
StandaloneBaseline Standalone(const PlatformSpec& platform, const std::string& profile);

// --- Latency-sensitive experiments (Figures 5, 12, 13) ----------------------

struct WebsearchConfig {
  PlatformSpec platform;
  PolicyKind policy = PolicyKind::kRaplOnly;
  Watts limit_w{85.0};
  bool with_cpuburn = true;
  double websearch_shares = 90.0;
  double cpuburn_shares = 10.0;
  int users = 300;
  Seconds warmup_s{30.0};
  Seconds measure_s{600.0};  // The paper's 600 s transaction window.
  uint64_t seed = 42;
  // Open-loop arrival process forwarded to WebSearch::Params; the default
  // (disabled) keeps the paper's closed-loop 300-user client population.
  WebSearch::OpenLoop open_loop;
  // Grouped daemon + observability options.
  RunOptions run;
};

// Thin typed wrapper over the shared summary (latency percentiles and
// completed_requests live in RunSummary).
struct WebsearchResult : RunSummary {
  Mhz websearch_avg_mhz{0.0};
  Mhz cpuburn_avg_mhz{0.0};
};

// Websearch on all-but-one core (high priority / high shares), optionally a
// cpuburn power virus on the last core, under the given policy and limit.
WebsearchResult RunWebsearch(const WebsearchConfig& config);

}  // namespace papd

#endif  // SRC_EXPERIMENTS_HARNESS_H_
