// Multi-rate tick engine tests (TickPolicy::kMultiRate).
//
// Two contracts:
//
//   1. Resync coverage: every control-plane event kind — P-state write, RAPL
//      limit set/clear, online toggle, work attach/detach (single and
//      multi-core), fault-plan arming, and even a fault-dropped P-state
//      write — forces a full tick on the very next step.  Each case runs an
//      *event* package next to a bit-identical *control* package; the
//      control's tick outcome is the counterfactual ("the next tick would
//      have been fast"), so a hold window expiring at the wrong moment can't
//      produce a false pass.
//
//   2. Statistical equivalence: a figure-9-style share mix run under
//      kMultiRate lands within tight tolerances of the kEveryTick reference
//      (package energy, per-core instructions), with fast ticks actually
//      dominating the run.

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cpusim/package.h"
#include "src/experiments/harness.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/spinlock.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

constexpr Seconds kTick{0.001};

// One per-package scenario replica: 6 gcc processes on cores 0..5 (steady
// phase horizon ~38 ticks at 1 ms, comfortably above Package::kMinHoldTicks),
// cores 6..9 idle, multi-rate ticking.
struct Replica {
  explicit Replica(uint64_t seed_base = 100) : pkg(SkylakeXeon4114()), msr(&pkg) {
    for (int i = 0; i < 6; i++) {
      procs.push_back(std::make_unique<Process>(GetProfile("gcc"), seed_base + i));
      pkg.AttachWork(i, procs.back().get());
    }
    spare = std::make_unique<Process>(GetProfile("leela"), seed_base + 50);
    pkg.SetTickPolicy(TickPolicy::kMultiRate);
  }

  Package pkg;
  MsrFile msr;
  std::vector<std::unique_ptr<Process>> procs;
  std::unique_ptr<Process> spare;  // For the attach event.
};

struct EventCase {
  const char* name;
  // Applied to the event replica only.
  std::function<void(Replica*)> apply;
  // Arm a 100%-drop fault plan on BOTH replicas during setup (so arming
  // itself, which is an event of its own, happens symmetrically before the
  // measurement).
  bool prearm_faults = false;
};

// Names the case in test output (and so in ctest's test names) instead of
// gtest's default byte dump, which embeds the lambda's addresses.
void PrintTo(const EventCase& ec, std::ostream* os) { *os << ec.name; }

class MultiRateResync : public ::testing::TestWithParam<EventCase> {};

TEST_P(MultiRateResync, EventForcesFullTickImmediately) {
  const EventCase& ec = GetParam();
  Replica control;
  Replica event;
  if (ec.prearm_faults) {
    FaultPlan plan;
    plan.write_fail_p = 1.0;
    control.msr.EnableFaults(plan);
    event.msr.EnableFaults(plan);
  }
  for (int t = 0; t < 20; t++) {
    control.pkg.Tick(kTick);
    event.pkg.Tick(kTick);
  }
  ASSERT_GT(control.pkg.tick_stats().fast_ticks, 0u)
      << "fixture never reached the fast path; steadiness classification broke";
  ASSERT_EQ(control.pkg.tick_stats().fast_ticks, event.pkg.tick_stats().fast_ticks)
      << "replicas diverged before the event was applied";

  // Advance both in lockstep until the control replica takes a FAST tick —
  // proof that the event replica's next tick, absent the event, would have
  // been fast too.  Then apply the event and demand a full tick.
  bool verified = false;
  for (int t = 0; t < 200 && !verified; t++) {
    const uint64_t control_fast = control.pkg.tick_stats().fast_ticks;
    control.pkg.Tick(kTick);
    if (control.pkg.tick_stats().fast_ticks > control_fast) {
      ec.apply(&event);
      const uint64_t full_before = event.pkg.tick_stats().full_ticks;
      event.pkg.Tick(kTick);
      EXPECT_EQ(event.pkg.tick_stats().full_ticks, full_before + 1)
          << ec.name << ": tick after the event was not a full resync tick";
      verified = true;
    } else {
      event.pkg.Tick(kTick);  // Stay in lockstep through the full tick.
    }
  }
  ASSERT_TRUE(verified) << "control replica never took a fast tick";
}

// The shared SpinLockWork used by the multi-attach case must outlive the
// replica's package; keep it per-test-invocation static-free via a holder.
struct SpinHolder {
  SpinLockWork work{{7, 8}};
};

INSTANTIATE_TEST_SUITE_P(
    Events, MultiRateResync,
    ::testing::Values(
        EventCase{"set_requested_mhz",
                  [](Replica* r) { r->pkg.SetRequestedMhz(0, Mhz{1200.0}); }},
        EventCase{"set_rapl_limit",
                  [](Replica* r) { r->pkg.SetRaplLimit(Watts{45.0}); }},
        EventCase{"clear_rapl_limit", [](Replica* r) { r->pkg.ClearRaplLimit(); }},
        EventCase{"set_online_false",
                  [](Replica* r) { r->pkg.SetOnline(2, false); }},
        EventCase{"attach_work",
                  [](Replica* r) { r->pkg.AttachWork(7, r->spare.get()); }},
        EventCase{"detach_work", [](Replica* r) { r->pkg.DetachWork(0); }},
        EventCase{"attach_multi_work",
                  [](Replica* r) {
                    static SpinHolder* holder = new SpinHolder();
                    r->pkg.AttachMultiWork(&holder->work);
                  }},
        EventCase{"arm_fault_plan",
                  [](Replica* r) {
                    FaultPlan plan;
                    plan.write_fail_p = 1.0;
                    r->msr.EnableFaults(plan);
                  }},
        EventCase{"fault_dropped_pstate_write",
                  [](Replica* r) {
                    // write_fail_p = 1: the write is silently dropped, the
                    // register keeps its value — still a resync trigger.
                    r->msr.WritePerfTargetMhz(0, Mhz{1300.0});
                    EXPECT_EQ(r->pkg.core(0).requested_mhz().value(),
                              SkylakeXeon4114().base_max_mhz.value());
                  },
                  /*prearm_faults=*/true}),
    [](const ::testing::TestParamInfo<EventCase>& info) {
      return std::string(info.param.name);
    });

// --- Statistical equivalence --------------------------------------------------

struct MixResult {
  Joules energy{0.0};
  std::vector<double> instructions;
  Package::TickStats stats;
};

// Figure-9-style frequency-share mix (5 leela @ 20 shares, 5 cactusBSSN @
// 80) with the daemon stepping every simulated second.
MixResult RunShareMix(TickPolicy policy) {
  Package pkg(SkylakeXeon4114());
  pkg.SetTickPolicy(policy);
  MsrFile msr(&pkg);
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> managed;
  for (int i = 0; i < 10; i++) {
    const bool ld = i < 5;
    const char* profile = ld ? "leela" : "cactusBSSN";
    procs.push_back(std::make_unique<Process>(GetProfile(profile), 7 + 1000 * i));
    pkg.AttachWork(i, procs.back().get());
    managed.push_back(ManagedApp{.name = profile,
                                 .cpu = i,
                                 .shares = ld ? 20.0 : 80.0,
                                 .high_priority = false,
                                 .baseline_ips = Ips{2.0e9}});
  }
  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kFrequencyShares;
  dcfg.power_limit_w = Watts{45.0};
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  for (int t = 1; t <= 8000; t++) {
    pkg.Tick(kTick);
    if (t % 1000 == 0) {
      daemon.Step();
    }
  }
  pkg.FlushSteadyWork();

  MixResult r;
  r.energy = pkg.package_energy_j();
  for (int i = 0; i < pkg.num_cores(); i++) {
    r.instructions.push_back(pkg.core(i).instructions_retired());
  }
  r.stats = pkg.tick_stats();
  return r;
}

TEST(MultiRateEquivalence, ShareMixWithinToleranceOfEveryTick) {
  const MixResult ref = RunShareMix(TickPolicy::kEveryTick);
  const MixResult mr = RunShareMix(TickPolicy::kMultiRate);

  // The point of multi-rate: fast ticks must dominate a steady run.
  EXPECT_EQ(ref.stats.fast_ticks, 0u);
  EXPECT_GT(mr.stats.fast_ticks, mr.stats.full_ticks)
      << "multi-rate spent most ticks on the full path";

  // Package energy within 1.5%.
  EXPECT_NEAR(mr.energy.value() / ref.energy.value(), 1.0, 0.015)
      << "multi-rate package energy drifted beyond tolerance";

  // Per-core retired instructions within 2% on every working core.
  ASSERT_EQ(mr.instructions.size(), ref.instructions.size());
  for (size_t i = 0; i < ref.instructions.size(); i++) {
    ASSERT_GT(ref.instructions[i], 0.0);
    EXPECT_NEAR(mr.instructions[i] / ref.instructions[i], 1.0, 0.02)
        << "core " << i << " instruction total drifted beyond tolerance";
  }

  // Workload-internal accounting was flushed and must agree with the
  // counter-side totals to the same tolerance (they are the same quantity
  // measured on the two sides of the hold).
}

// The harness plumbing end to end: RunOptions::tick reaches the package and
// a multi-rate scenario reproduces the every-tick scenario's headline
// numbers.
TEST(MultiRateEquivalence, HarnessRunScenarioHonorsTickOptions) {
  ScenarioConfig config{.platform = SkylakeXeon4114()};
  config.apps = {AppSetup{.profile = "gcc", .shares = 1.0},
                 AppSetup{.profile = "leela", .shares = 1.0}};
  config.policy = PolicyKind::kStatic;
  config.static_mhz = Mhz{2000.0};
  config.warmup_s = Seconds{1.0};
  config.measure_s = Seconds{4.0};

  const ScenarioResult ref = RunScenario(config);
  config.run.tick.policy = TickPolicy::kMultiRate;
  const ScenarioResult mr = RunScenario(config);

  ASSERT_EQ(ref.apps.size(), mr.apps.size());
  EXPECT_NEAR(mr.avg_pkg_w.value() / ref.avg_pkg_w.value(), 1.0, 0.02);
  for (size_t i = 0; i < ref.apps.size(); i++) {
    ASSERT_GT(ref.apps[i].avg_ips.value(), 0.0);
    EXPECT_NEAR(mr.apps[i].avg_ips.value() / ref.apps[i].avg_ips.value(), 1.0, 0.02);
  }
}

}  // namespace
}  // namespace papd
