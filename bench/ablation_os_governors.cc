// Ablation A5: OS frequency governors as a baseline.
//
// Paper Section 2.2 surveys the incumbent software consumers of DVFS — the
// Linux cpufreq governors.  This bench runs the unfair-throttling scenario
// (leela next to a cpuburn power virus under a 40 W RAPL cap) with each
// governor steering per-core DVFS at 100 ms, and compares against the
// frequency-shares policy.  Utilization-driven governors give the 100%-
// utilized virus the maximum frequency — the same treatment as the useful
// app — so they inherit RAPL's unfairness; only the share policy
// differentiates.

#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/harness.h"
#include "src/governor/governor.h"
#include "src/msr/msr.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

struct Row {
  Mhz app_mhz{0.0};
  Mhz virus_mhz{0.0};
  double app_perf = 0.0;  // Normalized to standalone.
  Watts pkg_w{0.0};
};

Row MeasureGovernor(GovernorKind kind, Watts limit) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  MsrFile msr(&pkg);
  Process app(GetProfile("leela"), 1);
  Process virus(GetProfile("cpuburn"), 2);
  pkg.AttachWork(0, &app);
  pkg.AttachWork(1, &virus);
  pkg.SetRaplLimit(limit);

  const std::unique_ptr<PowerDaemon> governor = StartGovernor(&msr, kind);
  Simulator sim(&pkg);
  sim.AddPeriodic(governor->config().period_s, [&governor](Seconds) { governor->Step(); });
  sim.Run(Seconds{20.0});  // Settle.

  const double i0 = pkg.core(0).instructions_retired();
  const double a0 = pkg.core(0).aperf_cycles();
  const double m0 = pkg.core(0).mperf_cycles();
  const double av0 = pkg.core(1).aperf_cycles();
  const double mv0 = pkg.core(1).mperf_cycles();
  const Joules e0{pkg.package_energy_j()};
  const Seconds t0{pkg.now()};
  sim.Run(Seconds{60.0});
  const Seconds dt{pkg.now() - t0};

  Row row;
  row.app_mhz = (pkg.core(0).aperf_cycles() - a0) / (pkg.core(0).mperf_cycles() - m0) *
                spec.tsc_mhz;
  row.virus_mhz = (pkg.core(1).aperf_cycles() - av0) /
                  (pkg.core(1).mperf_cycles() - mv0) * spec.tsc_mhz;
  row.app_perf = (pkg.core(0).instructions_retired() - i0) / dt /
                 Standalone(spec, "leela").ips;
  row.pkg_w = (pkg.package_energy_j() - e0) / dt;
  return row;
}

Row MeasureShares(Watts limit) {
  ScenarioConfig c{.platform = SkylakeXeon4114()};
  c.apps = {{.profile = "leela", .shares = 90.0}, {.profile = "cpuburn", .shares = 10.0}};
  c.policy = PolicyKind::kFrequencyShares;
  c.limit_w = limit;
  c.warmup_s = Seconds{20};
  c.measure_s = Seconds{60};
  const ScenarioResult r = RunScenario(c);
  return Row{.app_mhz = r.apps[0].avg_active_mhz,
             .virus_mhz = r.apps[1].avg_active_mhz,
             .app_perf = r.apps[0].norm_perf,
             .pkg_w = r.avg_pkg_w};
}

void Run() {
  PrintBenchHeader("Ablation A5",
                   "cpufreq governors vs frequency shares: leela + cpuburn @ 40 W");

  TextTable t;
  t.SetHeader({"controller", "leela MHz", "virus MHz", "leela perf", "pkg W"});
  for (GovernorKind kind :
       {GovernorKind::kPerformance, GovernorKind::kOndemand, GovernorKind::kConservative,
        GovernorKind::kPowersave}) {
    const Row r = MeasureGovernor(kind, Watts{40.0});
    t.AddRow({std::string(GovernorKindName(kind)) + " + RAPL",
              TextTable::Num(r.app_mhz.value(), 0), TextTable::Num(r.virus_mhz.value(), 0),
              TextTable::Num(r.app_perf, 2), TextTable::Num(r.pkg_w.value(), 1)});
  }
  const Row share = MeasureShares(Watts{40.0});
  t.AddRow({"freq-shares 90/10", TextTable::Num(share.app_mhz.value(), 0),
            TextTable::Num(share.virus_mhz.value(), 0), TextTable::Num(share.app_perf, 2),
            TextTable::Num(share.pkg_w.value(), 1)});
  t.Print(std::cout);

  std::cout << "\nReading: every utilization-driven governor gives the virus the same\n"
               "frequency as the useful app (both 100% utilized), so RAPL throttles\n"
               "them together; powersave avoids the cap by crippling both.  The share\n"
               "policy alone keeps leela at full standalone performance, handing the\n"
               "virus only the power left over once leela is satisfied.\n";
}

}  // namespace
}  // namespace papd

int main() {
  papd::Run();
  return 0;
}
