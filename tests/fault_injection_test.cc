// Integration tests for telemetry fault injection and the daemon's
// graceful-degradation ladder: deterministic replay, hold/fallback/recovery,
// the naive-baseline regression (stale telemetry must not read as free
// headroom), write-failure retry with backoff and the RAPL safety net, the
// governor's fallback, and the acceptance sweep over every standard fault
// schedule, for scenario and websearch runs alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/cluster/socket_stack.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/batch.h"
#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"
#include "src/governor/governor.h"
#include "src/msr/fault_plan.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/policy/policy_registry.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

// Same closed-loop rig as daemon_test.cc.
struct Rig {
  explicit Rig(PlatformSpec spec) : pkg(std::move(spec)), msr(&pkg) {}

  void AddApp(const std::string& profile, double shares, bool hp = false) {
    const int cpu = static_cast<int>(procs.size());
    procs.push_back(std::make_unique<Process>(GetProfile(profile), 100 + cpu));
    pkg.AttachWork(cpu, procs.back().get());
    apps.push_back(ManagedApp{.name = profile,
                              .cpu = cpu,
                              .shares = shares,
                              .high_priority = hp,
                              .baseline_ips = GetProfile(profile).NominalIps(Mhz{3000})});
  }

  void Run(PowerDaemon* daemon, Seconds seconds) {
    Simulator sim(&pkg);
    sim.AddPeriodic(daemon->config().period_s, [daemon](Seconds) { daemon->Step(); });
    sim.Run(seconds);
  }

  Package pkg;
  MsrFile msr;
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> apps;
};

// The naive pre-hardening daemon: raw telemetry, no degradation ladder.  The
// auditor is off because this configuration violates the power ceiling by
// design — that is the bug being demonstrated.
DaemonConfig NaiveConfig(PolicyKind kind, Watts limit_w) {
  DaemonConfig cfg;
  cfg.kind = kind;
  cfg.power_limit_w = limit_w;
  cfg.degradation.enabled = false;
  cfg.raw_telemetry = true;
  cfg.audit = false;
  return cfg;
}

// Column `name` of the daemon's metrics rows: its per-period series.
std::vector<double> Series(const PowerDaemon& daemon, const std::string& name) {
  const std::vector<std::string>& names = daemon.metrics().scalar_names();
  const auto col = static_cast<size_t>(std::find(names.begin(), names.end(), name) - names.begin());
  std::vector<double> series;
  for (const obs::MetricsRegistry::Row& row : daemon.metrics().rows()) {
    series.push_back(row.values.at(col));
  }
  return series;
}

FaultPlan StaleStorm() {
  FaultPlan plan;
  plan.seed = 11;
  plan.stale_sample_p = 1.0;
  return plan;
}

// --- Deterministic replay ----------------------------------------------------

TEST(FaultInjection, ScenarioReplayIsBitIdentical) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{"cactusBSSN", 2.0}, {"leela", 1.0}, {"gcc", 1.0}, {"omnetpp", 1.0}};
  c.policy = PolicyKind::kFrequencyShares;
  c.limit_w = Watts{45.0};
  c.warmup_s = Seconds{5.0};
  c.measure_s = Seconds{25.0};
  c.run.daemon.faults.seed = 99;
  c.run.daemon.faults.start_s = Seconds{8.0};
  c.run.daemon.faults.end_s = Seconds{24.0};
  c.run.daemon.faults.stale_sample_p = 0.3;
  c.run.daemon.faults.counter_reset_p = 0.1;
  c.run.daemon.faults.energy_wrap_p = 0.2;
  c.run.daemon.faults.write_fail_p = 0.3;

  const ScenarioResult a = RunScenario(c);
  const ScenarioResult b = RunScenario(c);
  EXPECT_DOUBLE_EQ(a.avg_pkg_w.value(), b.avg_pkg_w.value());
  EXPECT_DOUBLE_EQ(a.max_pkg_w.value(), b.max_pkg_w.value());
  EXPECT_EQ(a.fault_counts.stale_samples, b.fault_counts.stale_samples);
  EXPECT_EQ(a.fault_counts.counter_resets, b.fault_counts.counter_resets);
  EXPECT_EQ(a.fault_counts.energy_wraps, b.fault_counts.energy_wraps);
  EXPECT_EQ(a.fault_counts.dropped_writes, b.fault_counts.dropped_writes);
  EXPECT_EQ(a.fault_stats.invalid_samples, b.fault_stats.invalid_samples);
  EXPECT_EQ(a.fault_stats.fallback_periods, b.fault_stats.fallback_periods);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (size_t i = 0; i < a.apps.size(); i++) {
    EXPECT_DOUBLE_EQ(a.apps[i].avg_ips.value(), b.apps[i].avg_ips.value());
  }
  // The schedule injected something; otherwise the test is vacuous.
  EXPECT_GT(a.fault_counts.stale_samples, 0);
  EXPECT_GT(a.fault_stats.invalid_samples, 0);
}

// --- Degradation ladder: hold, fallback, recovery ----------------------------

TEST(FaultInjection, StaleStormHoldsThenFallsBackThenRecovers) {
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 6; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{45}});
  daemon.Start();
  rig.Run(&daemon, Seconds{20.0});
  ASSERT_EQ(daemon.degradation_state(), DegradationState::kNominal);
  const std::vector<Mhz> pre_fault = daemon.targets();
  std::vector<Mhz> pre_requested;
  for (int i = 0; i < 6; i++) {
    pre_requested.push_back(rig.pkg.core(i).requested_mhz());
  }

  rig.msr.EnableFaults(StaleStorm());
  // Two invalid periods: hold — targets and hardware untouched.
  rig.Run(&daemon, Seconds{2.0});
  EXPECT_EQ(daemon.degradation_state(), DegradationState::kHold);
  EXPECT_EQ(daemon.bad_sample_streak(), 2);
  EXPECT_EQ(daemon.fault_stats().held_periods, 2);
  EXPECT_EQ(daemon.targets(), pre_fault);
  for (int i = 0; i < 6; i++) {
    EXPECT_DOUBLE_EQ(rig.pkg.core(i).requested_mhz().value(), pre_requested[i].value());
  }

  // Third consecutive invalid period: fallback — every running core at the
  // platform floor, RAPL safety net armed.
  rig.Run(&daemon, Seconds{3.0});
  EXPECT_EQ(daemon.degradation_state(), DegradationState::kFallback);
  EXPECT_GE(daemon.fault_stats().fallback_periods, 1);
  for (int i = 0; i < 6; i++) {
    EXPECT_DOUBLE_EQ(rig.pkg.core(i).requested_mhz().value(), 800.0);
  }
  EXPECT_TRUE(rig.pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 45.0);
  // The policy's view of the targets is frozen, not floored.
  EXPECT_EQ(daemon.targets(), pre_fault);

  // Telemetry returns: nominal targets must be restored within 3 periods,
  // and the safety net (which the daemon armed, not the operator) disarmed.
  rig.msr.EnableFaults(FaultPlan{});
  rig.Run(&daemon, Seconds{3.0});
  EXPECT_EQ(daemon.degradation_state(), DegradationState::kNominal);
  EXPECT_EQ(daemon.bad_sample_streak(), 0);
  for (int i = 0; i < 6; i++) {
    EXPECT_DOUBLE_EQ(rig.pkg.core(i).requested_mhz().value(), pre_requested[i].value());
  }
  EXPECT_FALSE(rig.pkg.rapl().enabled());
}

TEST(FaultInjection, HistoryRecordsLadderStates) {
  Rig rig(SkylakeXeon4114());
  rig.AddApp("gcc", 1.0);
  rig.AddApp("leela", 1.0);
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{40}});
  daemon.Start();
  rig.Run(&daemon, Seconds{5.0});
  rig.msr.EnableFaults(StaleStorm());
  rig.Run(&daemon, Seconds{5.0});
  const std::vector<double> ladder = Series(daemon, "daemon.ladder_state");
  ASSERT_EQ(ladder.size(), 10u);
  EXPECT_EQ(ladder[4], static_cast<double>(DegradationState::kNominal));
  EXPECT_EQ(ladder[5], static_cast<double>(DegradationState::kHold));
  EXPECT_EQ(ladder[6], static_cast<double>(DegradationState::kHold));
  for (size_t i = 7; i < 10; i++) {
    EXPECT_EQ(ladder[i], static_cast<double>(DegradationState::kFallback));
  }
}

// --- The seed bug, demonstrated and fixed ------------------------------------

// Pre-hardening, a stale read produced a *valid* all-zero sample; the policy
// read zero package power as limit_w of free headroom and ramped everything
// to the maximum — exactly while it was blind.  The hardened daemon must
// never raise a request on invalid telemetry.
TEST(FaultInjection, NaiveDaemonRampsOnStaleTelemetryHardenedHolds) {
  Rig naive_rig(SkylakeXeon4114());
  Rig hard_rig(SkylakeXeon4114());
  for (int i = 0; i < 10; i++) {
    naive_rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
    hard_rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  PowerDaemon naive(&naive_rig.msr, naive_rig.apps,
                    NaiveConfig(PolicyKind::kFrequencyShares, Watts{45.0}));
  DaemonConfig hcfg;
  hcfg.kind = PolicyKind::kFrequencyShares;
  hcfg.power_limit_w = Watts{45.0};
  PowerDaemon hardened(&hard_rig.msr, hard_rig.apps, hcfg);
  naive.Start();
  hardened.Start();
  naive_rig.Run(&naive, Seconds{30.0});
  hard_rig.Run(&hardened, Seconds{30.0});

  // Converged well below the maximum P-state at 45 W over 10 cores.
  const Mhz naive_pre{naive_rig.pkg.core(0).requested_mhz()};
  const Mhz hard_pre{hard_rig.pkg.core(0).requested_mhz()};
  ASSERT_LT(naive_pre, Mhz{2500.0});
  ASSERT_LT(hard_pre, Mhz{2500.0});

  naive_rig.msr.EnableFaults(StaleStorm());
  hard_rig.msr.EnableFaults(StaleStorm());
  naive_rig.Run(&naive, Seconds{10.0});
  hard_rig.Run(&hardened, Seconds{10.0});

  // Naive: zero-power samples look like headroom; requests climb to max.
  EXPECT_DOUBLE_EQ(naive_rig.pkg.core(0).requested_mhz().value(), 3000.0);
  // Hardened: requests never rise while blind (hold, then the 800 floor).
  for (int i = 0; i < 10; i++) {
    EXPECT_LE(hard_rig.pkg.core(i).requested_mhz(), hard_pre + Mhz{1.0});
  }
  EXPECT_EQ(hardened.degradation_state(), DegradationState::kFallback);
}

TEST(FaultInjection, PriorityPolicyDoesNotUnstarveOnStaleTelemetry) {
  // Same bug through the priority policy: zero power would un-starve
  // low-priority cores while telemetry is dark.  Hardened must keep the
  // starved set exactly as it was.
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 5; i++) {
    rig.AddApp("cactusBSSN", 1.0, /*hp=*/true);
  }
  for (int i = 0; i < 5; i++) {
    rig.AddApp("cactusBSSN", 1.0, /*hp=*/false);
  }
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kPriority, .power_limit_w = Watts{40}});
  daemon.Start();
  rig.Run(&daemon, Seconds{30.0});
  std::vector<bool> pre_online;
  for (int i = 0; i < 10; i++) {
    pre_online.push_back(rig.msr.CoreOnline(i));
  }
  int pre_offline = 0;
  for (int i = 5; i < 10; i++) {
    pre_offline += rig.msr.CoreOnline(i) ? 0 : 1;
  }
  ASSERT_GT(pre_offline, 0);

  rig.msr.EnableFaults(StaleStorm());
  rig.Run(&daemon, Seconds{10.0});
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(rig.msr.CoreOnline(i), pre_online[i]) << "core " << i;
  }
}

// --- Write verification, backoff, RAPL safety net ----------------------------

TEST(FaultInjection, DroppedWritesRetryWithBackoffAndArmSafetyNet) {
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 6; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{50}});
  daemon.Start();
  rig.Run(&daemon, Seconds{20.0});
  ASSERT_FALSE(rig.pkg.rapl().enabled());

  // Every P-state write is now dropped; a limit change forces the daemon to
  // reprogram into the failure.
  FaultPlan drops;
  drops.seed = 3;
  drops.write_fail_p = 1.0;
  rig.msr.EnableFaults(drops);
  daemon.SetPowerLimit(Watts{40.0});
  // Same loop as Rig::Run, also recording the periods whose program failed
  // and the period in which the RAPL net armed.
  std::vector<int> failed_periods;
  int armed_period = 0;
  {
    Simulator sim(&rig.pkg);
    int period = 0;
    sim.AddPeriodic(daemon.config().period_s, [&](Seconds) {
      const int failed_before = daemon.fault_stats().failed_programs;
      daemon.Step();
      period++;
      if (daemon.fault_stats().failed_programs > failed_before) {
        failed_periods.push_back(period);
      }
      if (armed_period == 0 && rig.pkg.rapl().enabled()) {
        armed_period = period;
      }
    });
    sim.Run(Seconds{20.0});
  }

  // Exponential backoff between retries, 1, 2 and then 4 periods, capped
  // at 4: every period that does not retry is a backoff skip.
  EXPECT_EQ(failed_periods, (std::vector<int>{1, 3, 6, 11, 16}));
  const DaemonFaultStats& stats = daemon.fault_stats();
  EXPECT_EQ(stats.failed_programs, 5);
  EXPECT_EQ(stats.backoff_skips, 15);
  EXPECT_EQ(daemon.write_fail_streak(), 5);
  // The third consecutive failure arms the RAPL net: hardware takes over.
  EXPECT_EQ(armed_period, 6);
  EXPECT_TRUE(rig.pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 40.0);

  // Writes work again: the pending program lands, the streak clears, and
  // the daemon-armed net is disarmed.
  rig.msr.EnableFaults(FaultPlan{});
  rig.Run(&daemon, Seconds{10.0});
  EXPECT_EQ(daemon.write_fail_streak(), 0);
  EXPECT_EQ(daemon.degradation_state(), DegradationState::kNominal);
  EXPECT_FALSE(rig.pkg.rapl().enabled());
}

TEST(FaultInjection, MonitoringPoliciesStopRewritingUnchangedTargets) {
  // kRaplOnly and kStatic program once at Start; with targets never
  // changing, the hardened daemon must not touch the registers again.
  for (const PolicyKind kind : {PolicyKind::kRaplOnly, PolicyKind::kStatic}) {
    Rig rig(SkylakeXeon4114());
    rig.AddApp("gcc", 1.0);
    rig.AddApp("leela", 1.0);
    DaemonConfig cfg;
    cfg.kind = kind;
    cfg.power_limit_w = Watts{45.0};
    cfg.static_mhz = Mhz{1800.0};
    PowerDaemon daemon(&rig.msr, rig.apps, cfg);
    daemon.Start();
    const int writes_after_start = rig.msr.write_count();
    rig.Run(&daemon, Seconds{10.0});
    EXPECT_EQ(rig.msr.write_count(), writes_after_start)
        << PolicyKindName(kind) << " kept rewriting unchanged targets";
    EXPECT_EQ(daemon.fault_stats().reprogram_skips, 10);
  }
}

// --- Governor degradation ----------------------------------------------------

TEST(FaultInjection, GovernorHoldsThenFallsBackToMinimum) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("cpuburn"), 1);
  pkg.AttachWork(0, &proc);
  const std::unique_ptr<PowerDaemon> daemon = StartGovernor(&msr, GovernorKind::kOndemand);

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{2.0});
  ASSERT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 3000.0);  // 100% util.
  ASSERT_EQ(daemon->bad_sample_streak(), 0);

  msr.EnableFaults(StaleStorm());
  sim.Run(Seconds{0.2});  // Two invalid samples: hold.
  EXPECT_EQ(daemon->bad_sample_streak(), 2);
  EXPECT_NE(daemon->degradation_state(), DegradationState::kFallback);
  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 3000.0);

  sim.Run(Seconds{0.2});  // Third invalid sample: everything to the platform minimum.
  EXPECT_EQ(daemon->degradation_state(), DegradationState::kFallback);
  for (int i = 0; i < pkg.num_cores(); i++) {
    EXPECT_DOUBLE_EQ(pkg.core(i).requested_mhz().value(), 800.0);
  }

  msr.EnableFaults(FaultPlan{});
  sim.Run(Seconds{1.0});  // Telemetry back: the busy core ramps again.
  EXPECT_EQ(daemon->bad_sample_streak(), 0);
  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 3000.0);
}

// A governed socket under a tighter package cap set outside the daemon (the
// OS-governor bench's 40 W): the safety net neither raises the cap to the
// daemon's limit (the 85 W TDP) in fallback nor turns it off on recovery.
TEST(FaultInjection, GovernorKeepsExternalRaplCapThroughFallback) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process app(GetProfile("leela"), 1);
  Process virus(GetProfile("cpuburn"), 2);
  pkg.AttachWork(0, &app);
  pkg.AttachWork(1, &virus);
  pkg.SetRaplLimit(Watts{40.0});
  const std::unique_ptr<PowerDaemon> daemon = StartGovernor(&msr, GovernorKind::kOndemand);

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{2.0});
  msr.EnableFaults(StaleStorm());
  sim.Run(Seconds{0.5});
  ASSERT_EQ(daemon->degradation_state(), DegradationState::kFallback);
  EXPECT_TRUE(pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(pkg.rapl().limit_w().value(), 40.0);

  msr.EnableFaults(FaultPlan{});
  sim.Run(Seconds{1.0});
  ASSERT_EQ(daemon->degradation_state(), DegradationState::kNominal);
  EXPECT_EQ(daemon->fault_stats().failed_programs, 0);
  EXPECT_TRUE(pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(pkg.rapl().limit_w().value(), 40.0);
}

// A looser external cap is tightened to the budget while the net is armed
// and put back, not turned off, when it disarms.
TEST(FaultInjection, SafetyNetRestoresLooserExternalCap) {
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 6; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  rig.pkg.SetRaplLimit(Watts{70.0});
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{45}});
  daemon.Start();
  rig.Run(&daemon, Seconds{10.0});

  rig.msr.EnableFaults(StaleStorm());
  rig.Run(&daemon, Seconds{4.0});
  ASSERT_EQ(daemon.degradation_state(), DegradationState::kFallback);
  EXPECT_TRUE(rig.pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 45.0);

  rig.msr.EnableFaults(FaultPlan{});
  rig.Run(&daemon, Seconds{3.0});
  ASSERT_EQ(daemon.degradation_state(), DegradationState::kNominal);
  EXPECT_TRUE(rig.pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 70.0);
}

// An armed net follows later budget changes (a budget-tree leaf whose
// programs never verify is regranted every period): it tightens to a lower
// budget and loosens to a higher one, and the hardware holds each.
TEST(FaultInjection, ArmedSafetyNetFollowsBudgetChanges) {
  Rig rig(SkylakeXeon4114());
  for (int i = 0; i < 6; i++) {
    rig.AddApp(i % 2 ? "leela" : "cactusBSSN", 1.0);
  }
  PowerDaemon daemon(&rig.msr, rig.apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{60}});
  daemon.Start();
  rig.Run(&daemon, Seconds{20.0});
  ASSERT_FALSE(rig.pkg.rapl().enabled());

  FaultPlan drops;
  drops.seed = 3;
  drops.write_fail_p = 1.0;
  rig.msr.EnableFaults(drops);
  daemon.SetPowerLimit(Watts{50.0});
  rig.Run(&daemon, Seconds{10.0});
  ASSERT_TRUE(rig.pkg.rapl().enabled());
  ASSERT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 50.0);

  daemon.SetPowerLimit(Watts{35.0});
  rig.Run(&daemon, Seconds{10.0});
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 35.0);
  EXPECT_NEAR(rig.pkg.rapl().running_average_w().value(), 35.0, 1.0);

  daemon.SetPowerLimit(Watts{45.0});
  rig.Run(&daemon, Seconds{10.0});
  EXPECT_DOUBLE_EQ(rig.pkg.rapl().limit_w().value(), 45.0);
}

// --- Acceptance sweep --------------------------------------------------------

// Under every standard fault schedule the hardened, audited daemon keeps the
// ground-truth package power within the configured slack of the limit.  The
// auditor itself (power-ceiling invariant) aborts the test on a daemon-
// visible violation; max_pkg_w checks the energy-counter truth the daemon
// cannot see.
TEST(FaultInjection, HardenedDaemonHoldsCeilingUnderEverySchedule) {
  for (const FaultScenario& fs : FaultSchedules(Seconds{20.0}, Seconds{50.0}, /*seed=*/5)) {
    ScenarioConfig c{.platform = SkylakeXeon4114()};
    c.apps = {{"cactusBSSN", 2.0}, {"leela", 1.0},     {"gcc", 1.0},
              {"deepsjeng", 1.0},  {"exchange2", 1.0}, {"omnetpp", 1.0}};
    c.policy = PolicyKind::kFrequencyShares;
    c.limit_w = Watts{50.0};
    c.warmup_s = Seconds{10.0};
    c.measure_s = Seconds{60.0};
    c.run.daemon.audit = true;
    c.run.daemon.faults = fs.plan;
    c.run.daemon.degrade = true;
    const ScenarioResult r = RunScenario(c);
    EXPECT_LE(r.max_pkg_w, c.limit_w + Watts{8.0}) << fs.label;
    EXPECT_GT(r.avg_pkg_w, Watts{0.0}) << fs.label;
  }
}


// Websearch runs build their socket through the same SocketStack as
// scenario runs, so the fault plan and the degradation knob reach their
// daemon and the ground-truth power meter runs.
int InjectedFaults(const FaultCounts& c) {
  return c.stale_samples + c.counter_resets + c.energy_wraps + c.read_spikes + c.dropped_writes;
}

WebsearchConfig ShortFaultedWebsearch(const FaultPlan& plan) {
  WebsearchConfig w{.platform = SkylakeXeon4114()};
  w.policy = PolicyKind::kFrequencyShares;
  w.limit_w = Watts{50.0};
  w.warmup_s = Seconds{5.0};
  w.measure_s = Seconds{15.0};
  w.run.daemon.faults = plan;
  return w;
}

TEST(FaultInjection, WebsearchInjectsEveryScheduleAndMetersPower) {
  const std::vector<FaultScenario> schedules =
      FaultSchedules(Seconds{5.0}, Seconds{20.0}, /*seed=*/5);
  std::vector<WebsearchConfig> configs;
  for (const FaultScenario& fs : schedules) {
    configs.push_back(ShortFaultedWebsearch(fs.plan));
  }
  const std::vector<WebsearchResult> results = RunWebsearches(configs);
  ASSERT_EQ(results.size(), schedules.size());
  for (size_t i = 0; i < results.size(); i++) {
    EXPECT_GT(InjectedFaults(results[i].fault_counts), 0) << schedules[i].label;
    EXPECT_GT(results[i].max_pkg_w, Watts{0.0}) << schedules[i].label;
  }
}

TEST(FaultInjection, WebsearchDegradeKnobReachesDaemon) {
  FaultPlan stale_burst;
  for (const FaultScenario& fs : FaultSchedules(Seconds{5.0}, Seconds{20.0}, /*seed=*/5)) {
    if (fs.label == "stale-burst") {
      stale_burst = fs.plan;
    }
  }
  ASSERT_TRUE(stale_burst.Any());
  WebsearchConfig hardened = ShortFaultedWebsearch(stale_burst);
  WebsearchConfig naive = hardened;
  naive.run.daemon.degrade = false;
  naive.run.daemon.audit = false;
  const std::vector<WebsearchResult> r = RunWebsearches({hardened, naive});
  // The hardened daemon validates telemetry and rejects the stale samples;
  // the naive one consumes them raw.
  EXPECT_GT(r[0].fault_stats.invalid_samples, 0);
  EXPECT_EQ(r[1].fault_stats.invalid_samples, 0);
  EXPECT_GT(InjectedFaults(r[1].fault_counts), 0);
}

// --- Fault-free baseline ------------------------------------------------------

// Every preset under every programming policy it supports.
struct CleanCase {
  std::string preset;
  PlatformSpec (*spec)();
  PolicyKind policy;
};

// Keeps the ctest names free of the raw parameter bytes (a pointer).
void PrintTo(const CleanCase& c, std::ostream* os) {
  *os << c.preset << " " << PolicyKindName(c.policy);
}

std::vector<CleanCase> CleanCases() {
  const std::pair<const char*, PlatformSpec (*)()> presets[] = {
      {"skylake", SkylakeXeon4114},
      {"ryzen", Ryzen1700X},
      {"xeon64", ManyCoreXeon64},
      {"epyc128", ManyCoreEpyc128},
  };
  std::vector<CleanCase> cases;
  for (const auto& [preset, spec] : presets) {
    for (PolicyKind policy : {PolicyKind::kPriority, PolicyKind::kFrequencyShares,
                              PolicyKind::kPerformanceShares, PolicyKind::kStatic,
                              PolicyKind::kPowerShares}) {
      if (policy != PolicyKind::kPowerShares || spec().has_per_core_power) {
        cases.push_back(CleanCase{.preset = preset, .spec = spec, .policy = policy});
      }
    }
  }
  return cases;
}

class FaultFreeRun : public ::testing::TestWithParam<CleanCase> {};

// With no fault injected, every P-state program verifies: the daemon never
// holds, never falls back, and never arms the RAPL safety net.
TEST_P(FaultFreeRun, ProgramsCleanly) {
  const CleanCase& c = GetParam();
  if (c.preset == "epyc128" && c.policy != PolicyKind::kPriority &&
      c.policy != PolicyKind::kStatic) {
    GTEST_SKIP() << "ManyCoreEpyc128's 25 MHz targets never verify against the 100 MHz "
                    "PERF_CTL read-back (ROADMAP item 1)";
  }
  RackSocketConfig socket{.platform = c.spec()};
  socket.apps = ManyCoreSpreadMix(socket.platform.num_cores, /*rotate=*/0).apps;
  socket.policy = c.policy;
  DaemonConfig dcfg;
  dcfg.kind = c.policy;
  dcfg.power_limit_w = (SocketFloorW(socket) + SocketCeilingW(socket)) / 2.0;
  SocketStack stack(socket, dcfg, FaultPlan{}, Seconds{0.001}, TickOptions{});
  for (int second = 1; second <= 15; second++) {
    stack.AdvancePeriod(Seconds{1.0});
    EXPECT_FALSE(stack.pkg.rapl().enabled()) << "safety net armed at " << second << " s";
  }
  const DaemonFaultStats& stats = stack.daemon->fault_stats();
  EXPECT_EQ(stats.failed_programs, 0);
  EXPECT_EQ(stats.held_periods, 0);
  EXPECT_EQ(stats.fallback_periods, 0);
}

INSTANTIATE_TEST_SUITE_P(Presets, FaultFreeRun, ::testing::ValuesIn(CleanCases()),
                         [](const ::testing::TestParamInfo<CleanCase>& info) {
                           std::string name =
                               info.param.preset + "_" + PolicyKindName(info.param.policy);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace papd
