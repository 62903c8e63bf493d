// Rescuing starved low-priority jobs by time-slicing them on one core.
//
// Paper Section 4.4: "these simple policies can lead to starvation under
// space sharing even when a subset of applications could still run ...
// the policy should disable cores (put them in a sleep state) and let the
// OS scheduler time-slice applications on the remaining cores."
//
// This example demonstrates that remedy.  Three high-priority cactusBSSN
// shards plus four low-priority batch jobs run under a 40 W cap:
//
//   phase 1 — space sharing: the priority policy starves all four LP jobs
//             (no residual power for four extra cores);
//   phase 2 — consolidation: the operator packs the four LP jobs onto ONE
//             core as a TimeSharedCore with equal CPU shares, costing only
//             a single minimum-P-state core of power.
//
// The LP jobs go from zero progress to a quarter-share each of one slow
// core — while the HP shards keep their frequency.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/lp_timeslicing

#include <cstdio>
#include <memory>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/cpusim/timeshare.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

int main() {
  using namespace papd;

  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  MsrFile msr(&pkg);

  // High-priority shards on cores 0-2.
  std::vector<std::unique_ptr<Process>> hp;
  std::vector<ManagedApp> apps;
  for (int c = 0; c < 3; c++) {
    hp.push_back(std::make_unique<Process>(GetProfile("cactusBSSN"), 1 + c));
    pkg.AttachWork(c, hp.back().get());
    apps.push_back(ManagedApp{.name = "cactusBSSN", .cpu = c, .high_priority = true});
  }
  // Low-priority batch jobs, initially pinned to cores 3-6 (space sharing).
  const std::vector<std::string> lp_names = {"gcc", "leela", "deepsjeng", "perlbench"};
  std::vector<std::unique_ptr<Process>> lp;
  for (int i = 0; i < 4; i++) {
    lp.push_back(std::make_unique<Process>(GetProfile(lp_names[static_cast<size_t>(i)]),
                                           10 + i));
    pkg.AttachWork(3 + i, lp.back().get());
    apps.push_back(
        ManagedApp{.name = lp_names[static_cast<size_t>(i)], .cpu = 3 + i,
                   .high_priority = false});
  }

  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kPriority;
  dcfg.power_limit_w = Watts{40.0};
  PowerDaemon daemon(&msr, apps, dcfg);
  daemon.Start();

  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });

  // --- Phase 1: space sharing --------------------------------------------
  sim.Run(Seconds{60.0});
  std::printf("phase 1 (space sharing, 40 W): pkg %.1f W\n",
              daemon.last_sample().pkg_w.value());
  std::vector<double> instr_phase1;
  for (int i = 0; i < 4; i++) {
    instr_phase1.push_back(lp[static_cast<size_t>(i)]->instructions_retired());
    std::printf("  LP %-10s core %d: %s, %6.2f Ginstr total\n",
                lp_names[static_cast<size_t>(i)].c_str(), 3 + i,
                msr.CoreOnline(3 + i) ? "running" : "starved (core offline)",
                instr_phase1.back() / 1e9);
  }

  // --- Phase 2: consolidate the starved LP jobs on core 3 -----------------
  // The operator detaches the four batch jobs and re-attaches them as one
  // time-shared occupant of core 3 with equal CPU shares at the minimum
  // P-state, then hands the daemon an updated app list (3 HP apps + one
  // "batch" slot with the standard minimum guarantee).
  for (int i = 0; i < 4; i++) {
    pkg.DetachWork(3 + i);
    msr.SetCoreOnline(3 + i, true);
    msr.WritePerfTargetMhz(3 + i, spec.min_mhz);
  }
  std::vector<TimeSharedCore::Member> members;
  for (int i = 0; i < 4; i++) {
    members.push_back({.work = lp[static_cast<size_t>(i)].get(), .residency = 0.25});
  }
  TimeSharedCore batch(std::move(members));
  pkg.AttachWork(3, &batch);
  for (int c = 4; c < 7; c++) {
    msr.SetCoreOnline(c, false);  // The freed cores go to deep sleep.
  }
  std::vector<ManagedApp> apps2(apps.begin(), apps.begin() + 3);
  apps2.push_back(ManagedApp{.name = "batch(x4)", .cpu = 3, .high_priority = false});
  DaemonConfig dcfg2 = dcfg;
  dcfg2.priority.starve_lp = false;  // The consolidated slot keeps min P-state.
  PowerDaemon daemon2(&msr, apps2, dcfg2);
  daemon2.Start();
  Simulator sim2(&pkg);
  sim2.AddPeriodic(Seconds{1.0}, [&daemon2](Seconds) { daemon2.Step(); });
  sim2.Run(Seconds{60.0});

  std::printf("\nphase 2 (LP jobs time-sliced on core 3, 40 W): pkg %.1f W\n",
              daemon2.last_sample().pkg_w.value());
  std::printf("  HP cores at %4.0f MHz (was %4.0f at phase 1 end)\n",
              daemon2.last_sample().cores[0].active_mhz.value(),
              daemon.last_sample().cores[0].active_mhz.value());
  for (int i = 0; i < 4; i++) {
    const double delta =
        lp[static_cast<size_t>(i)]->instructions_retired() - instr_phase1[static_cast<size_t>(i)];
    std::printf("  LP %-10s: +%5.2f Ginstr this phase (%s)\n",
                lp_names[static_cast<size_t>(i)].c_str(), delta / 1e9,
                delta > 0 ? "progressing" : "still starved");
  }
  std::printf(
      "\nConsolidation turns four starved batch jobs into four slowly progressing\n"
      "ones for the price of one minimum-P-state core, without touching the\n"
      "high-priority shards' frequency.\n");
  return 0;
}
