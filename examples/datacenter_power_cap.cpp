// Riding out a datacenter power emergency with the priority policy.
//
// Cluster managers (Dynamo, SmoothOperator — both cited by the paper)
// lower per-node power caps when the datacenter nears its provisioned
// limit.  This example runs a mixed-priority job set on the simulated
// Skylake node and steps the cap 85 W -> 60 W -> 40 W -> 85 W at runtime
// through PowerDaemon::SetPowerLimit, printing a timeline of how the
// priority policy sheds low-priority work first and restores it when the
// emergency passes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/datacenter_power_cap

#include <cstdio>
#include <memory>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

int main() {
  using namespace papd;

  Package package(SkylakeXeon4114());
  MsrFile msr(&package);

  // A mixed fleet: four high-priority service shards, six low-priority
  // batch jobs of varying demand.
  struct Job {
    const char* profile;
    bool high_priority;
  };
  const std::vector<Job> jobs = {
      {"perlbench", true}, {"leela", true},    {"deepsjeng", true}, {"gcc", true},
      {"cactusBSSN", false}, {"cam4", false},  {"lbm", false},      {"omnetpp", false},
      {"exchange2", false},  {"povray", false},
  };

  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> apps;
  for (size_t i = 0; i < jobs.size(); i++) {
    procs.push_back(std::make_unique<Process>(GetProfile(jobs[i].profile), 100 + i));
    package.AttachWork(static_cast<int>(i), procs.back().get());
    apps.push_back(ManagedApp{.name = jobs[i].profile,
                              .cpu = static_cast<int>(i),
                              .high_priority = jobs[i].high_priority});
  }

  PowerDaemon daemon(&msr, apps, {.kind = PolicyKind::kPriority, .power_limit_w = Watts{85.0}});
  daemon.Start();

  Simulator sim(&package);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });

  // Cap schedule: (time, cap).
  const std::vector<std::pair<Seconds, Watts>> schedule = {{Seconds{0}, Watts{85}},
                                                           {Seconds{30}, Watts{60}},
                                                           {Seconds{60}, Watts{40}},
                                                           {Seconds{90}, Watts{85}}};

  std::printf("%6s %6s %8s %10s %10s %10s\n", "t(s)", "cap W", "pkg W", "HP MHz", "LP MHz",
              "LP running");
  size_t next_cap = 0;
  for (Seconds t{0.0}; t < Seconds{120.0}; t += Seconds{10.0}) {
    while (next_cap < schedule.size() && schedule[next_cap].first <= t + Seconds{1e-9}) {
      daemon.SetPowerLimit(schedule[next_cap].second);
      next_cap++;
    }
    sim.Run(Seconds{10.0});

    const TelemetrySample& sample = daemon.last_sample();
    Mhz hp_mhz{0.0};
    Mhz lp_mhz{0.0};
    int hp_n = 0;
    int lp_running = 0;
    for (size_t i = 0; i < apps.size(); i++) {
      const auto& core = sample.cores[static_cast<size_t>(apps[i].cpu)];
      if (apps[i].high_priority) {
        hp_mhz += core.active_mhz;
        hp_n++;
      } else if (core.online && core.busy > 0.01) {
        lp_mhz += core.active_mhz;
        lp_running++;
      }
    }
    std::printf("%6.0f %6.0f %8.1f %10.0f %10.0f %7d/6\n", sim.now().value(),
                daemon.config().power_limit_w.value(), sample.pkg_w.value(),
                (hp_mhz / hp_n).value(),
                lp_running ? (lp_mhz / lp_running).value() : 0.0, lp_running);
  }

  std::printf(
      "\nThe cap drop to 40 W sheds batch jobs (LP running falls) while the four\n"
      "service shards keep their frequency; restoring the cap re-admits them.\n");
  return 0;
}
