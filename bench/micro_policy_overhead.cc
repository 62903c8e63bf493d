// Micro-benchmarks: compute cost of the policy machinery.
//
// The paper notes its userspace daemon is not production-grade and that the
// policy "should be implemented in hardware ... to provide a low sampling
// overhead" (Section 5).  These measurements quantify the
// per-iteration cost of each policy's redistribution, the 3-P-state
// selector, a full daemon step (telemetry read + policy + MSR writes), and
// a simulator tick.  Timing uses the perf_util calibration/warmup
// discipline shared with bench/perf_harness.

#include "bench/perf_util.h"

#include <memory>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/thermal.h"
#include "src/governor/governor.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/policy/frequency_shares.h"
#include "src/policy/hwp.h"
#include "src/policy/min_funding.h"
#include "src/policy/performance_shares.h"
#include "src/policy/power_shares.h"
#include "src/policy/priority_policy.h"
#include "src/policy/pstate_selector.h"
#include "src/policy/single_core.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/spinlock.h"
#include "src/specsim/websearch.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

std::vector<ManagedApp> TenApps() {
  std::vector<ManagedApp> apps;
  for (int i = 0; i < 10; i++) {
    apps.push_back(ManagedApp{.name = "app",
                              .cpu = i,
                              .shares = 10.0 + 9.0 * i,
                              .high_priority = i % 2 == 0,
                              .baseline_ips = Ips{2e9}});
  }
  return apps;
}

TelemetrySample FakeSample(int cores, bool per_core_power) {
  TelemetrySample s;
  s.t = Seconds{1.0};
  s.dt = Seconds{1.0};
  s.pkg_w = Watts{52.0};
  for (int i = 0; i < cores; i++) {
    CoreTelemetry ct;
    ct.cpu = i;
    ct.active_mhz = Mhz{1500.0 + 100.0 * i};
    ct.ips = Ips{1.5e9};
    ct.busy = 1.0;
    if (per_core_power) {
      ct.core_w = Watts{4.0};
    }
    s.cores.push_back(ct);
  }
  return s;
}

PolicyPlatform Platform() { return MakePolicyPlatform(SkylakeXeon4114()); }

void BM_MinFundingDistribute(perf::State& state) {
  std::vector<ShareRequest> req;
  for (int i = 0; i < 10; i++) {
    req.push_back(ShareRequest{.shares = 1.0 + i, .minimum = 800, .maximum = 3000});
  }
  for (auto _ : state) {
    perf::DoNotOptimize(DistributeProportional(18000.0, req));
  }
}
PAPD_PERF_BENCH(BM_MinFundingDistribute);

void BM_FrequencySharesRedistribute(perf::State& state) {
  FrequencyShares policy(Platform());
  const auto apps = TenApps();
  policy.InitialDistribution(apps, Watts{45.0});
  const TelemetrySample sample = FakeSample(10, false);
  for (auto _ : state) {
    perf::DoNotOptimize(policy.Redistribute(apps, sample, Watts{45.0}));
  }
}
PAPD_PERF_BENCH(BM_FrequencySharesRedistribute);

void BM_PerformanceSharesRedistribute(perf::State& state) {
  PerformanceShares policy(Platform());
  const auto apps = TenApps();
  policy.InitialDistribution(apps, Watts{45.0});
  const TelemetrySample sample = FakeSample(10, false);
  for (auto _ : state) {
    perf::DoNotOptimize(policy.Redistribute(apps, sample, Watts{45.0}));
  }
}
PAPD_PERF_BENCH(BM_PerformanceSharesRedistribute);

void BM_PowerSharesRedistribute(perf::State& state) {
  PowerShares policy(Platform());
  const auto apps = TenApps();
  policy.InitialDistribution(apps, Watts{45.0});
  const TelemetrySample sample = FakeSample(10, true);
  for (auto _ : state) {
    perf::DoNotOptimize(policy.Redistribute(apps, sample, Watts{45.0}));
  }
}
PAPD_PERF_BENCH(BM_PowerSharesRedistribute);

void BM_PriorityRedistribute(perf::State& state) {
  PriorityPolicy policy(Platform(), {});
  const auto apps = TenApps();
  policy.InitialDistribution(apps, Watts{45.0});
  const TelemetrySample sample = FakeSample(10, false);
  for (auto _ : state) {
    perf::DoNotOptimize(policy.Redistribute(apps, sample, Watts{45.0}));
  }
}
PAPD_PERF_BENCH(BM_PriorityRedistribute);

void BM_SelectPStates(perf::State& state) {
  const std::vector<Mhz> targets = {Mhz{3400}, Mhz{3000}, Mhz{2600}, Mhz{2200}, Mhz{1800}, Mhz{1400}, Mhz{1000}, Mhz{800}};
  for (auto _ : state) {
    perf::DoNotOptimize(SelectPStates(targets, 3, Mhz{25}));
  }
}
PAPD_PERF_BENCH(BM_SelectPStates);

void BM_SelectPStatesNaive(perf::State& state) {
  const std::vector<Mhz> targets = {Mhz{3400}, Mhz{3000}, Mhz{2600}, Mhz{2200}, Mhz{1800}, Mhz{1400}, Mhz{1000}, Mhz{800}};
  for (auto _ : state) {
    perf::DoNotOptimize(SelectPStatesNaive(targets, 3, Mhz{25}));
  }
}
PAPD_PERF_BENCH(BM_SelectPStatesNaive);

void BM_SaturationDetectorObserve(perf::State& state) {
  SaturationDetector det(Platform(), 10);
  const auto apps = TenApps();
  const TelemetrySample sample = FakeSample(10, false);
  const std::vector<Mhz> requested(10, Mhz{2600.0});
  for (auto _ : state) {
    det.Observe(apps, sample, requested);
  }
}
PAPD_PERF_BENCH(BM_SaturationDetectorObserve);

void BM_SingleCoreSharingStep(perf::State& state) {
  SingleCoreSharing policy(Platform(), {{.name = "hd", .shares = 1.0, .demand = 1.4},
                                        {.name = "ld", .shares = 1.0, .demand = 1.0}});
  policy.Initial(Watts{6.0});
  for (auto _ : state) {
    perf::DoNotOptimize(policy.Step(Watts{6.0}, Watts{6.5}));
  }
}
PAPD_PERF_BENCH(BM_SingleCoreSharingStep);

void BM_ThermalModelUpdate(perf::State& state) {
  ThermalModel model(SkylakeXeon4114().thermal, 10);
  const std::vector<Watts> power(10, Watts{6.0});
  for (auto _ : state) {
    model.Update(power, Watts{8.0}, Seconds{0.001});
  }
}
PAPD_PERF_BENCH(BM_ThermalModelUpdate);

void BM_GovernorOndemandDecide(perf::State& state) {
  OndemandGovernor gov(GovernorLimits{});
  double util = 0.3;
  for (auto _ : state) {
    util = util < 0.9 ? util + 0.01 : 0.1;
    perf::DoNotOptimize(gov.Decide(util, Mhz{2000.0}));
  }
}
PAPD_PERF_BENCH(BM_GovernorOndemandDecide);

void BM_SpinLockTick(perf::State& state) {
  SpinLockWork work({0, 1, 2, 3});
  const std::vector<Mhz> freqs = {Mhz{3000}, Mhz{3000}, Mhz{3000}, Mhz{800}};
  std::vector<WorkSlice> slices(freqs.size());
  for (auto _ : state) {
    work.RunBatch(Seconds{0.001}, freqs.data(), slices.data(), slices.size());
    perf::DoNotOptimize(slices.data());
  }
}
PAPD_PERF_BENCH(BM_SpinLockTick);

void BM_WebSearchTick(perf::State& state) {
  WebSearch ws({0, 1, 2, 3, 4, 5, 6, 7, 8}, WebSearch::Params{}, 1);
  const std::vector<Mhz> freqs(9, Mhz{2600.0});
  std::vector<WorkSlice> slices(freqs.size());
  for (auto _ : state) {
    ws.RunBatch(Seconds{0.001}, freqs.data(), slices.data(), slices.size());
    perf::DoNotOptimize(slices.data());
  }
}
PAPD_PERF_BENCH(BM_WebSearchTick);

void BM_PackageTick(perf::State& state) {
  Package pkg(SkylakeXeon4114());
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
    pkg.AttachWork(i, procs.back().get());
  }
  for (auto _ : state) {
    pkg.Tick(Seconds{0.001});
  }
}
PAPD_PERF_BENCH(BM_PackageTick);

void BM_DaemonFullStep(perf::State& state) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  std::vector<std::unique_ptr<Process>> procs;
  auto apps = TenApps();
  for (int i = 0; i < 10; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
    pkg.AttachWork(i, procs.back().get());
  }
  PowerDaemon daemon(&msr, apps,
                     {.kind = PolicyKind::kFrequencyShares, .power_limit_w = Watts{45.0}});
  daemon.Start();
  for (auto _ : state) {
    pkg.Tick(Seconds{0.001});  // Advance so each sample covers a nonzero window.
    daemon.Step();
  }
}
PAPD_PERF_BENCH(BM_DaemonFullStep);

}  // namespace
}  // namespace papd

int main(int argc, char** argv) { return papd::perf::PerfMain(argc, argv); }
