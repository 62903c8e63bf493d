// Unit tests for the OS frequency governors and the governed PowerDaemon.

#include <gtest/gtest.h>

#include <memory>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/governor/governor.h"
#include "src/msr/fault_plan.h"
#include "src/obs/trace.h"
#include "src/platform/platform_spec.h"
#include "src/platform/pstate.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

// The Skylake Xeon 4114 grid: 800-3000 MHz in 100 MHz steps.
PStateTable Grid() { return PStateTable(Mhz{800}, Mhz{3000}, Mhz{100}); }

TEST(Governors, PerformanceAlwaysMax) {
  EXPECT_DOUBLE_EQ(GovernorDecision(GovernorKind::kPerformance, Grid(), 0.0, Mhz{1500}).value(),
                   3000.0);
  EXPECT_DOUBLE_EQ(GovernorDecision(GovernorKind::kPerformance, Grid(), 1.0, Mhz{800}).value(),
                   3000.0);
}

TEST(Governors, PowersaveAlwaysMin) {
  EXPECT_DOUBLE_EQ(GovernorDecision(GovernorKind::kPowersave, Grid(), 1.0, Mhz{3000}).value(),
                   800.0);
}

TEST(Governors, OndemandJumpsToMaxWhenBusy) {
  EXPECT_DOUBLE_EQ(GovernorDecision(GovernorKind::kOndemand, Grid(), 0.95, Mhz{800}).value(),
                   3000.0);
}

TEST(Governors, OndemandProportionalWhenIdle) {
  const Mhz f{GovernorDecision(GovernorKind::kOndemand, Grid(), 0.40, Mhz{3000})};
  EXPECT_LT(f, Mhz{3000.0});
  EXPECT_GE(f, Mhz{800.0});
  // ~ util * max / headroom = 0.4 * 3000 / 0.8 = 1500.
  EXPECT_NEAR(f.value(), 1500.0, 100.0);
}

TEST(Governors, ConservativeStepsGradually) {
  const PStateTable grid = Grid();
  const Mhz up{GovernorDecision(GovernorKind::kConservative, grid, 0.95, Mhz{1500})};
  EXPECT_GT(up, Mhz{1500.0});
  EXPECT_LT(up, Mhz{3000.0});  // One step, not a jump.
  const Mhz down{GovernorDecision(GovernorKind::kConservative, grid, 0.05, Mhz{1500})};
  EXPECT_LT(down, Mhz{1500.0});
  EXPECT_GT(down, Mhz{800.0});
  const Mhz hold{GovernorDecision(GovernorKind::kConservative, grid, 0.50, Mhz{1500})};
  EXPECT_DOUBLE_EQ(hold.value(), 1500.0);
}

TEST(Governors, ConservativeClampsAtRangeEnds) {
  EXPECT_DOUBLE_EQ(
      GovernorDecision(GovernorKind::kConservative, Grid(), 0.99, Mhz{3000}).value(), 3000.0);
  EXPECT_DOUBLE_EQ(
      GovernorDecision(GovernorKind::kConservative, Grid(), 0.01, Mhz{800}).value(), 800.0);
}

// Every decision of every governor, on every preset's grid, from every grid
// point and at every utilization in 0.01 steps, is a point of that grid;
// the four rules hold at their thresholds.
TEST(Governors, EveryDecisionIsAGridPointOnEveryPreset) {
  for (const PlatformSpec& spec :
       {SkylakeXeon4114(), Ryzen1700X(), ManyCoreXeon64(), ManyCoreEpyc128()}) {
    SCOPED_TRACE(spec.name);
    const PStateTable grid = spec.PStates();
    for (GovernorKind kind :
         {GovernorKind::kPerformance, GovernorKind::kPowersave, GovernorKind::kOndemand,
          GovernorKind::kConservative}) {
      SCOPED_TRACE(GovernorKindName(kind));
      for (int u = 0; u <= 100; u++) {
        const double utilization = u / 100.0;
        for (size_t p = 0; p < grid.size(); p++) {
          const Mhz current = grid.FrequencyOf(p);
          const Mhz next = GovernorDecision(kind, grid, utilization, current);
          ASSERT_TRUE(grid.OnGrid(next))
              << next << " MHz at " << utilization << " from " << current;
          ASSERT_GE(next, grid.min_mhz());
          ASSERT_LE(next, grid.max_mhz());
          switch (kind) {
            case GovernorKind::kPerformance:
              ASSERT_EQ(next, grid.max_mhz());
              break;
            case GovernorKind::kPowersave:
              ASSERT_EQ(next, grid.min_mhz());
              break;
            case GovernorKind::kOndemand:
              if (utilization >= 0.8) {
                ASSERT_EQ(next, grid.max_mhz()) << " at " << utilization;
              }
              break;
            case GovernorKind::kConservative:
              if (utilization > 0.2 && utilization < 0.8) {
                ASSERT_EQ(next, current) << " at " << utilization;
              }
              break;
          }
        }
      }
    }
  }
}

TEST(GovernorDaemon, OndemandRampsBusyCoreAndParksIdleCore) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("gcc"), 1);
  pkg.AttachWork(0, &proc);  // Core 0 busy; others idle.
  const std::unique_ptr<PowerDaemon> daemon = StartGovernor(&msr, GovernorKind::kOndemand);

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{2.0});

  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 3000.0);  // 100% util -> max.
  EXPECT_DOUBLE_EQ(pkg.core(1).requested_mhz().value(), 800.0);   // Idle -> min.
}

TEST(GovernorDaemon, ConservativeConvergesOverTime) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("gcc"), 1);
  pkg.AttachWork(0, &proc);
  pkg.SetRequestedMhz(0, Mhz{800});
  const std::unique_ptr<PowerDaemon> daemon = StartGovernor(&msr, GovernorKind::kConservative);

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{0.5});
  const Mhz early{pkg.core(0).requested_mhz()};
  sim.Run(Seconds{5.0});
  const Mhz late{pkg.core(0).requested_mhz()};
  EXPECT_GT(late, early);       // Ramps up under sustained load...
  EXPECT_DOUBLE_EQ(late.value(), 3000.0);  // ...eventually reaching max.
}

TEST(GovernorDaemon, UtilizationGovernorIgnoresPriorities) {
  // The motivating deficiency: a power virus is 100% utilized, so ondemand
  // gives it the maximum frequency — identical treatment to a high-priority
  // app.  Differential power delivery is impossible.
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process burn(GetProfile("cpuburn"), 1);
  Process service(GetProfile("leela"), 2);
  pkg.AttachWork(0, &burn);
  pkg.AttachWork(1, &service);
  const std::unique_ptr<PowerDaemon> daemon = StartGovernor(&msr, GovernorKind::kOndemand);

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{2.0});
  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), pkg.core(1).requested_mhz().value());
}

// On Ryzen the daemon's three-P-state selector programs the governors'
// requests: the busy core runs at turbo maximum, the idle core is parked
// at the minimum.
TEST(GovernorPolicy, OndemandRunsRyzenThroughSelector) {
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  Process proc(GetProfile("gcc"), 1);
  pkg.AttachWork(0, &proc);
  const std::unique_ptr<PowerDaemon> daemon = StartGovernor(&msr, GovernorKind::kOndemand);

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{2.0});

  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 3800.0);  // Turbo maximum.
  EXPECT_DOUBLE_EQ(pkg.core(1).requested_mhz().value(), 800.0);
  EXPECT_EQ(daemon->fault_stats().failed_programs, 0);
}

// Dropped P-state writes are read back, traced unverified and retried with
// backoff until one lands; unchanged targets are not rewritten.
TEST(GovernorPolicy, DroppedWritesAreTracedUnverifiedAndRetried) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("cpuburn"), 1);
  pkg.AttachWork(0, &proc);
  FaultPlan drop;
  drop.end_s = Seconds{0.35};
  drop.write_fail_p = 1.0;
  msr.EnableFaults(drop);
  obs::TraceRecorder recorder;
  const std::unique_ptr<PowerDaemon> daemon =
      StartGovernor(&msr, GovernorKind::kOndemand, {.sink = &recorder});

  Simulator sim(&pkg);
  sim.AddPeriodic(daemon->config().period_s, [&daemon](Seconds) { daemon->Step(); });
  sim.Run(Seconds{1.0});

  // Start (t = 0) and the retry at 0.2 s are dropped; the retry at 0.5 s
  // lands, and the first redistribution (0.6 s) is the last write.
  int unverified = 0;
  int verified = 0;
  for (const obs::TraceEvent& e : recorder.Drain()) {
    if (e.type == obs::TraceEventType::kPstateWrite) {
      (e.code == 1 ? verified : unverified)++;
    }
  }
  EXPECT_EQ(unverified, 2);
  EXPECT_EQ(verified, 2);
  EXPECT_EQ(daemon->fault_stats().failed_programs, 2);
  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 3000.0);
  EXPECT_DOUBLE_EQ(pkg.core(1).requested_mhz().value(), 800.0);
}

}  // namespace
}  // namespace papd
