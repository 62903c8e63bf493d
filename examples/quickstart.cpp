// Quickstart: differential power delivery in ~60 lines.
//
// Builds the simulated Skylake package, pins two SPEC-like applications to
// cores, and runs the frequency-shares policy daemon under a tight 22 W
// package limit.  The budget cannot run both cores fast, so the high-share
// app (leela, 80 shares) keeps most of its performance while the low-share
// app (cactusBSSN, 20 shares) is throttled toward the minimum P-state —
// all the while the package stays at the limit.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

int main() {
  using namespace papd;

  // 1. The platform: a simulated Intel Xeon SP 4114 (10 cores, per-core
  //    DVFS, RAPL).  Ryzen1700X() works identically.
  Package package(SkylakeXeon4114());
  MsrFile msr(&package);

  // 2. The workloads: leela (low demand) on core 0, cactusBSSN (high
  //    demand) on core 1.  Process loops a calibrated SPEC CPU2017 profile.
  Process leela(GetProfile("leela"), /*seed=*/1);
  Process cactus(GetProfile("cactusBSSN"), /*seed=*/2);
  package.AttachWork(0, &leela);
  package.AttachWork(1, &cactus);

  // 3. The policy: frequency shares, 80/20, under a 22 W package limit.
  std::vector<ManagedApp> apps = {
      {.name = "leela", .cpu = 0, .shares = 80.0},
      {.name = "cactusBSSN", .cpu = 1, .shares = 20.0},
  };
  PowerDaemon daemon(&msr, apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{22.0}});
  daemon.Start();

  // 4. Run: the daemon samples turbostat-style telemetry once per second
  //    and reprograms P-states.
  Simulator sim(&package);
  sim.AddPeriodic(/*period_s=*/Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });
  sim.Run(/*duration_s=*/Seconds{30.0});

  // 5. Inspect the outcome through the telemetry sample the daemon acted on
  //    last (its metrics() rows hold the per-period series).
  const TelemetrySample& sample = daemon.last_sample();
  std::printf("after %2.0f s under a 22 W limit:\n", sim.now().value());
  std::printf("  package power      %5.1f W\n", sample.pkg_w.value());
  for (const ManagedApp& app : apps) {
    const auto& core = sample.cores[static_cast<size_t>(app.cpu)];
    std::printf("  %-11s (%2.0f shares)  %4.0f MHz  %5.2f Ginstr/s\n", app.name.c_str(),
                app.shares, core.active_mhz.value(), core.ips.value() / 1e9);
  }
  return 0;
}
