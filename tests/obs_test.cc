// Observability layer tests: trace-recorder ring semantics, the
// disabled-tracer zero-cost guarantee, exporter golden output, daemon and
// flat-rack trace wiring (the rack test records from concurrent shards and
// is the TSan proof for the lock-free-per-thread rings), the unified fault
// counters, the PolicyRegistry, and the grouped RunOptions mapping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/budget_tree.h"
#include "src/common/json.h"
#include "src/common/thread_pool.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"
#include "src/governor/governor.h"
#include "src/msr/fault_plan.h"
#include "src/msr/msr.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/policy/daemon.h"
#include "src/policy/policy_registry.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

obs::TraceEvent Event(Seconds t, obs::TraceEventType type, int32_t index = 0, int32_t code = 0,
                      double a = 0.0, double b = 0.0) {
  obs::TraceEvent e;
  e.t = t;
  e.type = type;
  e.index = index;
  e.code = code;
  e.a = a;
  e.b = b;
  return e;
}

// --- TraceRecorder ring semantics --------------------------------------------

TEST(TraceRecorder, RecordsAndDrainsInTimeOrder) {
  obs::TraceRecorder recorder(/*ring_capacity=*/64);
  recorder.OnEvent(Event(Seconds{2.0}, obs::TraceEventType::kPeriodEnd));
  recorder.OnEvent(Event(Seconds{1.0}, obs::TraceEventType::kPeriodBegin));
  recorder.OnEvent(Event(Seconds{3.0}, obs::TraceEventType::kRedistribute));

  const std::vector<obs::TraceEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].t.value(), 1.0);
  EXPECT_DOUBLE_EQ(events[1].t.value(), 2.0);
  EXPECT_DOUBLE_EQ(events[2].t.value(), 3.0);
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorder, RingWraparoundKeepsNewestEvents) {
  constexpr size_t kCapacity = 8;
  constexpr int kTotal = 20;
  obs::TraceRecorder recorder(kCapacity);
  for (int i = 0; i < kTotal; i++) {
    recorder.OnEvent(Event(static_cast<Seconds>(i), obs::TraceEventType::kPeriodBegin, i));
  }
  EXPECT_EQ(recorder.recorded(), static_cast<uint64_t>(kTotal));
  EXPECT_EQ(recorder.dropped(), static_cast<uint64_t>(kTotal - kCapacity));

  const std::vector<obs::TraceEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), kCapacity);
  // The oldest retained event is kTotal - kCapacity; order is preserved.
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].index, static_cast<int32_t>(kTotal - kCapacity + i));
  }
}

// --- Disabled-tracer guarantee -----------------------------------------------

int CountingPayload(int* calls) {
  ++*calls;
  return 7;
}

TEST(ThreadTrace, MacroArgsNotEvaluatedWhenDisabled) {
  // No ScopedThreadTrace installed: the macro must not evaluate its
  // arguments or emit anything.
  ASSERT_EQ(obs::ThreadTrace().sink, nullptr);
  int calls = 0;
  PAPD_TRACE_REVOKE(CountingPayload(&calls), 3.5, false);
  EXPECT_EQ(calls, 0);

  obs::TraceRecorder recorder;
  {
    obs::ScopedThreadTrace scope(&recorder, Seconds{1.5}, /*shard=*/3);
    PAPD_TRACE_REVOKE(CountingPayload(&calls), 3.5, true);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(obs::ThreadTrace().sink, nullptr);  // Restored on scope exit.

  const std::vector<obs::TraceEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, obs::TraceEventType::kMinFundingRevoke);
  EXPECT_EQ(events[0].index, 7);
  EXPECT_EQ(events[0].code, 1);  // at_max.
  EXPECT_EQ(events[0].shard, 3);
  EXPECT_DOUBLE_EQ(events[0].t.value(), 1.5);
  EXPECT_DOUBLE_EQ(events[0].a, 3.5);
}

TEST(ThreadTrace, DaemonWithoutSinkEmitsNothing) {
  // A live recorder that is never bound must see zero events from a full
  // daemon run — tracing support is free when disabled.
  obs::TraceRecorder recorder;
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> apps;
  for (int i = 0; i < 4; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 100 + i));
    pkg.AttachWork(i, procs.back().get());
    apps.push_back(ManagedApp{.name = "gcc", .cpu = i, .shares = 1.0 + i});
  }
  PowerDaemon daemon(&msr, apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{45.0}});
  daemon.Start();
  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });
  sim.Run(Seconds{10.0});
  EXPECT_EQ(recorder.recorded(), 0u);
}

// --- Exporter golden output --------------------------------------------------

TEST(Exporters, ChromeTraceJsonGolden) {
  std::vector<obs::TraceEvent> events;
  events.push_back(
      Event(Seconds{1.0}, obs::TraceEventType::kPeriodBegin, /*index=*/5, /*code=*/0, 44.25, 45.0));
  events.push_back(Event(Seconds{1.0}, obs::TraceEventType::kAppTarget, /*index=*/2, /*code=*/1, 2400.0,
                         2600.0));
  events.push_back(Event(Seconds{1.5}, obs::TraceEventType::kPeriodEnd, /*index=*/5, /*code=*/0, 12.5));
  events.push_back(Event(Seconds{2.0}, obs::TraceEventType::kSloShift, /*index=*/3, /*code=*/1,
                         1.25, 0.0421));
  const std::string json = obs::ChromeTraceJson(events);
  const std::string want =
      "{\"traceEvents\":[\n"
      "{\"name\":\"daemon period\",\"cat\":\"daemon\",\"ph\":\"B\",\"ts\":1000000.000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"period\":5,\"state\":\"nominal\","
      "\"pkg_w\":44.250,\"limit_w\":45.000}},\n"
      "{\"name\":\"app2 target_mhz\",\"cat\":\"policy\",\"ph\":\"C\",\"ts\":1000000.000,"
      "\"pid\":0,\"args\":{\"mhz\":2600.0}},\n"
      "{\"name\":\"daemon period\",\"cat\":\"daemon\",\"ph\":\"E\",\"ts\":1500000.000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"state\":\"nominal\",\"latency_us\":12.500}},\n"
      "{\"name\":\"node3 level1 slo_bias\",\"cat\":\"cluster\",\"ph\":\"C\",\"ts\":2000000.000,"
      "\"pid\":0,\"args\":{\"bias\":1.2500,\"p90_s\":0.042100}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(json, want);
}

TEST(Exporters, SloShiftEventNameRegistered) {
  EXPECT_STREQ(obs::TraceEventTypeName(obs::TraceEventType::kSloShift), "slo-shift");
}

TEST(Exporters, MetricsCsvGolden) {
  obs::MetricsRegistry registry;
  obs::Counter* bad = registry.GetCounter("telemetry.invalid_samples");
  obs::Gauge* pkg = registry.GetGauge("daemon.pkg_w");
  pkg->Set(43.5);
  registry.Snapshot(Seconds{1.0});
  bad->Increment(2);
  pkg->Set(44.0);
  registry.Snapshot(Seconds{2.0});
  const std::string want =
      "t_s,telemetry.invalid_samples,daemon.pkg_w\n"
      "1.000,0,43.5\n"
      "2.000,2,44\n";
  EXPECT_EQ(obs::MetricsCsv(registry), want);
}

TEST(Exporters, MetricsJsonGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("daemon.fallback_periods")->Increment(3);
  obs::Histogram* lat = registry.GetHistogram("daemon.redistribute_latency_us", {1.0, 10.0});
  lat->Observe(0.5);
  lat->Observe(5.0);
  lat->Observe(100.0);
  const std::string want =
      "{\"daemon.fallback_periods\": 3, "
      "\"daemon.redistribute_latency_us\": "
      "{\"count\": 3, \"sum\": 105.5, \"buckets\": [[1, 1], [10, 1], [null, 1]]}}";
  EXPECT_EQ(obs::MetricsJson(registry.Export()), want);
}

// A record longer than any fixed format buffer is written whole.
TEST(Exporters, MetricsJsonLongNameParses) {
  obs::MetricsRegistry registry;
  const std::string name(300, 'g');
  registry.GetGauge(name)->Set(1.5);
  const json::ParseResult parsed = json::Parse(obs::MetricsJson(registry.Export()));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_DOUBLE_EQ(parsed.value.NumberOr(name, 0.0), 1.5);
}

// A full device accepts fwrite into stdio's buffer and fails the flush in
// fclose; that failure is a failed write.
TEST(Exporters, WriteFileReportsFailedFlush) {
  EXPECT_FALSE(obs::WriteFile("/dev/full", "{}"));
}

// --- Daemon trace wiring -----------------------------------------------------

TEST(DaemonObsTest, PeriodEventsMatchHistory) {
  obs::TraceRecorder recorder;
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> apps;
  for (int i = 0; i < 6; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile(i % 2 ? "leela" : "gcc"), 100 + i));
    pkg.AttachWork(i, procs.back().get());
    apps.push_back(ManagedApp{.name = "app", .cpu = i, .shares = 1.0 + i});
  }
  DaemonConfig cfg{.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{40.0}};
  cfg.obs = DaemonObs{.sink = &recorder, .shard = 0};
  PowerDaemon daemon(&msr, apps, cfg);
  daemon.Start();
  Simulator sim(&pkg);
  size_t steps = 0;
  sim.AddPeriodic(Seconds{1.0}, [&daemon, &steps](Seconds) {
    daemon.Step();
    steps++;
  });
  sim.Run(Seconds{20.0});

  const std::vector<obs::TraceEvent> events = recorder.Drain();
  ASSERT_FALSE(events.empty());
  int begins = 0;
  int ends = 0;
  int pstate_writes = 0;
  Seconds last_t{0.0};
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.shard, 0);
    EXPECT_GE(e.t, last_t);  // Drain() returns time order.
    last_t = e.t;
    switch (e.type) {
      case obs::TraceEventType::kPeriodBegin:
        begins++;
        EXPECT_GT(e.a, 0.0);             // pkg_w.
        EXPECT_DOUBLE_EQ(e.b, 40.0);     // limit_w.
        break;
      case obs::TraceEventType::kPeriodEnd:
        ends++;
        EXPECT_GE(e.a, 0.0);  // latency_us.
        break;
      case obs::TraceEventType::kPstateWrite:
        pstate_writes++;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(begins, static_cast<int>(steps));
  EXPECT_EQ(ends, begins);
  EXPECT_GT(pstate_writes, 0);
  // One metrics row per period, stamped with simulated time.
  EXPECT_EQ(daemon.metrics().rows().size(), steps);
}

// --- Unified fault counters --------------------------------------------------

// Regression test: invalid_samples used to be counted twice (Turbostat and
// the daemon each kept one), and the daemon's copy stayed 0 whenever the
// degradation ladder was disabled while validation stayed on.  The metrics
// registry is now the single source of truth.
TEST(DaemonObsTest, UnifiedFaultCountersSingleSourceOfTruth) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  FaultPlan plan;
  plan.seed = 11;
  plan.start_s = Seconds{2.0};
  plan.stale_sample_p = 0.8;
  msr.EnableFaults(plan);

  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> apps;
  for (int i = 0; i < 4; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 100 + i));
    pkg.AttachWork(i, procs.back().get());
    apps.push_back(ManagedApp{.name = "gcc", .cpu = i, .shares = 1.0});
  }
  DaemonConfig cfg{.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{45.0}};
  // The old split-counter bug: ladder off, validation on.  The daemon-side
  // counter never advanced on this path.
  cfg.degradation.enabled = false;
  cfg.audit = false;  // The naive daemon can overshoot under faults.
  PowerDaemon daemon(&msr, apps, cfg);
  daemon.Start();
  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });
  sim.Run(Seconds{20.0});

  const DaemonFaultStats stats = daemon.fault_stats();
  EXPECT_GT(stats.invalid_samples, 0);
  EXPECT_EQ(static_cast<double>(stats.invalid_samples),
            daemon.metrics().ScalarValue("telemetry.invalid_samples"));
}

// --- Governor trace wiring ---------------------------------------------------

TEST(GovernorObsTest, TracesPeriodsAndFallbackTransitions) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("cpuburn"), 1);
  pkg.AttachWork(0, &proc);
  obs::TraceRecorder recorder;
  const std::unique_ptr<PowerDaemon> daemon = StartGovernor(
      &msr, GovernorKind::kOndemand, {.sink = &recorder, .shard = 2});

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{2.0});
  FaultPlan storm;
  storm.seed = 11;
  storm.stale_sample_p = 1.0;
  msr.EnableFaults(storm);
  sim.Run(Seconds{0.5});  // Past kFallbackAfter: enters fallback.
  ASSERT_EQ(daemon->degradation_state(), DegradationState::kFallback);
  msr.EnableFaults(FaultPlan{});
  sim.Run(Seconds{0.5});  // Recovers to nominal.
  ASSERT_NE(daemon->degradation_state(), DegradationState::kFallback);

  int begins = 0;
  int ends = 0;
  bool entered_fallback = false;
  bool recovered = false;
  for (const obs::TraceEvent& e : recorder.Drain()) {
    EXPECT_EQ(e.shard, 2);
    if (e.type == obs::TraceEventType::kPeriodBegin) {
      begins++;
    } else if (e.type == obs::TraceEventType::kPeriodEnd) {
      ends++;
    } else if (e.type == obs::TraceEventType::kLadderTransition) {
      // The ladder passes through hold (1) on its way to fallback (2).
      entered_fallback = entered_fallback || (e.index == 1 && e.code == 2);
      recovered = recovered || (e.index == 2 && e.code == 0);
    }
  }
  EXPECT_EQ(begins, 30);  // 3.0 s at 100 ms.
  EXPECT_EQ(ends, begins);
  EXPECT_TRUE(entered_fallback);
  EXPECT_TRUE(recovered);
}

// --- Flat-rack shard tracing -------------------------------------------------

// Three leaf shards of a flat rack (a one-level BudgetTree) record into one
// TraceRecorder from ThreadPool workers while the arbiter emits grants from
// the coordinating thread.  Run under the TSan CI matrix, this is the proof
// that the per-thread rings are safe.
TEST(RackObsTest, ConcurrentShardsTraceSafely) {
  obs::TraceRecorder recorder;
  std::vector<RackSocketConfig> sockets;
  for (int s = 0; s < 3; s++) {
    RackSocketConfig socket{.platform = SkylakeXeon4114()};
    socket.apps = {{.profile = "gcc", .shares = 2.0}, {.profile = "leela", .shares = 1.0}};
    socket.policy = PolicyKind::kFrequencyShares;
    socket.seed = 42 + 100 * static_cast<uint64_t>(s);
    socket.use_baseline_ips = false;
    sockets.push_back(socket);
  }
  BudgetTreeConfig cfg = MakeFlatRack(std::move(sockets), Watts{150.0});
  cfg.obs = &recorder;
  BudgetTree rack(cfg);
  ThreadPool pool(3);
  for (int p = 0; p < 5; p++) {
    rack.Step(&pool);
  }

  // Drain after the pool barrier (Step returns only once all shards are
  // quiescent for the period).  Shard = flat node index: the root's grants
  // on shard 0, socket i's daemon and grant on shard i + 1.
  const std::vector<obs::TraceEvent> events = recorder.Drain();
  ASSERT_FALSE(events.empty());
  bool shard_seen[4] = {false, false, false, false};
  int leaf_grants = 0;
  for (const obs::TraceEvent& e : events) {
    ASSERT_GE(e.shard, 0);
    ASSERT_LT(e.shard, 4);
    shard_seen[e.shard] = true;
    if (e.type == obs::TraceEventType::kClusterGrant && e.shard > 0) {
      leaf_grants++;
      EXPECT_GT(e.a, 0.0);  // Grant watts.
    } else if (e.type == obs::TraceEventType::kPeriodBegin) {
      EXPECT_GT(e.shard, 0);  // Daemons run on the leaves only.
    }
  }
  EXPECT_TRUE(shard_seen[1] && shard_seen[2] && shard_seen[3]);
  EXPECT_EQ(leaf_grants, 3 * 5);  // One per socket per Step().
  EXPECT_GE(recorder.num_threads(), 2);
}

// --- Harness wiring ----------------------------------------------------------

ScenarioConfig ShortScenario() {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{"gcc", 2.0}, {"leela", 1.0}};
  c.policy = PolicyKind::kFrequencyShares;
  c.limit_w = Watts{40.0};
  c.warmup_s = Seconds{2.0};
  c.measure_s = Seconds{6.0};
  return c;
}

TEST(HarnessObsTest, RunScenarioReturnsTraceAndMetrics) {
  ScenarioConfig c = ShortScenario();
  c.run.obs.trace = true;
  const ScenarioResult r = RunScenario(c);
  EXPECT_FALSE(r.trace_events.empty());
  EXPECT_FALSE(r.metrics.empty());
  // The power gauge and the telemetry-validation counter are exported as
  // scalars.
  for (const char* name : {"daemon.pkg_w", "telemetry.invalid_samples"}) {
    EXPECT_TRUE(std::any_of(r.metrics.begin(), r.metrics.end(),
                            [name](const obs::MetricValue& m) {
                              return m.name == name &&
                                     m.kind != obs::MetricValue::Kind::kHistogram;
                            }))
        << name;
  }
  // Without tracing, the events vector stays empty but metrics still come
  // back (the registry always runs).
  const ScenarioResult quiet = RunScenario(ShortScenario());
  EXPECT_TRUE(quiet.trace_events.empty());
  EXPECT_FALSE(quiet.metrics.empty());
}

TEST(HarnessObsTest, RunScenarioRoutesEventsToExternalSink) {
  obs::TraceRecorder recorder;
  ScenarioConfig c = ShortScenario();
  c.run.obs.trace = true;
  c.run.obs.sink = &recorder;
  const ScenarioResult r = RunScenario(c);
  // External sink: events go there, not into the result.
  EXPECT_TRUE(r.trace_events.empty());
  EXPECT_GT(recorder.recorded(), 0u);
}

TEST(HarnessObsTest, RunScenarioWritesExportFiles) {
  const std::string dir = ::testing::TempDir();
  ScenarioConfig c = ShortScenario();
  c.run.obs.trace = true;
  c.run.obs.chrome_trace_path = dir + "/papd_obs_test_trace.json";
  c.run.obs.metrics_csv_path = dir + "/papd_obs_test_metrics.csv";
  (void)RunScenario(c);

  std::ifstream trace(c.run.obs.chrome_trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream trace_ss;
  trace_ss << trace.rdbuf();
  EXPECT_EQ(trace_ss.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace_ss.str().find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  std::ifstream csv(c.run.obs.metrics_csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header.rfind("t_s,", 0), 0u);
  EXPECT_NE(header.find("daemon.pkg_w"), std::string::npos);
  std::string first_row;
  std::getline(csv, first_row);
  EXPECT_FALSE(first_row.empty());

  std::remove(c.run.obs.chrome_trace_path.c_str());
  std::remove(c.run.obs.metrics_csv_path.c_str());
}

// --- PolicyRegistry ----------------------------------------------------------

TEST(PolicyRegistryTest, CoversEveryKindWithConsistentMetadata) {
  const std::vector<PolicyKind>& kinds = AllPolicyKinds();
  EXPECT_EQ(kinds.size(), 6u);
  for (PolicyKind kind : kinds) {
    const PolicyInfo& info = GetPolicyInfo(kind);
    EXPECT_EQ(info.kind, kind);
    ASSERT_NE(info.name, nullptr);
    EXPECT_STREQ(PolicyKindName(kind), info.name);
    // Name round-trips through the CLI lookup.
    const PolicyInfo* found = FindPolicyByName(info.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->kind, kind);
  }
  EXPECT_EQ(FindPolicyByName("no-such-policy"), nullptr);
}

TEST(PolicyRegistryTest, MakePolicyBuildsEveryKind) {
  const PolicyPlatform platform = MakePolicyPlatform(SkylakeXeon4114());
  for (PolicyKind kind : AllPolicyKinds()) {
    EXPECT_NE(MakePolicy(DaemonConfig{.kind = kind}, platform), nullptr) << PolicyKindName(kind);
  }
  // Trait bits drive the daemon's telemetry check, auditing and tracing.
  EXPECT_TRUE(GetPolicyInfo(PolicyKind::kPowerShares).needs_per_core_power);
  EXPECT_FALSE(GetPolicyInfo(PolicyKind::kRaplOnly).controls);
  EXPECT_TRUE(GetPolicyInfo(PolicyKind::kFrequencyShares).controls);
}

// --- Grouped RunOptions mapping ----------------------------------------------
// (The deprecated flat-field shim and EffectiveRun() are gone; nested
// RunOptions are the only source of daemon behavior.)

TEST(RunOptionsTest, ToDaemonConfigMapsEveryGroupedOption) {
  ScenarioConfig c = ShortScenario();
  c.policy = PolicyKind::kFrequencyShares;
  c.limit_w = Watts{37.0};
  c.run.daemon.audit = false;
  c.run.daemon.hwp_hints = true;
  c.run.daemon.degrade = false;
  const DaemonConfig dcfg = ToDaemonConfig(c);
  EXPECT_EQ(dcfg.kind, PolicyKind::kFrequencyShares);
  EXPECT_DOUBLE_EQ(dcfg.power_limit_w.value(), 37.0);
  EXPECT_FALSE(dcfg.audit);
  EXPECT_TRUE(dcfg.use_hwp_hints);
  EXPECT_FALSE(dcfg.degradation.enabled);
  EXPECT_TRUE(dcfg.raw_telemetry);  // degrade=false reproduces the naive daemon.
}

}  // namespace
}  // namespace papd
