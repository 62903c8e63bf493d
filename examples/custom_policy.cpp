// Writing a custom power-delivery policy.
//
// The daemon accepts any ShareResource implementation, so the paper's
// three share types are not a closed set.  This example implements
// "efficiency shares": each application's share is scaled by its measured
// instructions per cycle, so frequency flows toward the applications that
// convert cycles into retired work — a policy direction the paper's
// conclusion hints at ("one rewards low power use while others reward
// efficient processor use").  Memory-bound apps, which waste cycles
// stalling, are throttled first (their stalls don't get slower); the
// throttling *raises* their IPC, a negative feedback that keeps the
// weights stable.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/custom_policy

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/policy/min_funding.h"
#include "src/policy/share_policy.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace {

using namespace papd;

// Frequency shares whose effective share weight is the configured share
// times the application's measured instructions per cycle, renormalized
// every period.  Apps that stall on memory lose frequency to apps that
// retire work with every cycle they are given.
class EfficiencyShares : public ShareResource {
 public:
  explicit EfficiencyShares(PolicyPlatform platform) : platform_(platform) {}

  std::string Name() const override { return "efficiency-shares"; }

  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override {
    (void)limit_w;
    targets_.assign(apps.size(), platform_.max_mhz);
    return targets_;
  }

  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps,
                                const TelemetrySample& sample, Watts limit_w) override {
    const Watts power_delta{limit_w - sample.pkg_w};
    if (Abs(power_delta) <= kPowerToleranceW) {
      return targets_;
    }
    // Effective weight: configured share x measured instructions per cycle.
    std::vector<ShareRequest> req;
    for (const ManagedApp& app : apps) {
      const auto& core = sample.cores[static_cast<size_t>(app.cpu)];
      const double ipc =
          core.active_mhz > Mhz{0.0} ? core.ips / IpsAtMhz(core.active_mhz, /*ipc=*/1.0) : 0.0;
      req.push_back(ShareRequest{
          .shares = app.shares * std::max(ipc, 0.05),
          .minimum = AsResourceUnits(platform_.min_mhz),
          .maximum = AsResourceUnits(platform_.max_mhz),
      });
    }
    const double alpha = AlphaOf(power_delta, platform_.max_power_w);
    ResourceUnits total =
        alpha * AsResourceUnits(platform_.max_mhz) * static_cast<double>(apps.size());
    for (Mhz f : targets_) {
      total += AsResourceUnits(f);
    }
    targets_.clear();
    for (ResourceUnits u : DistributeProportional(total, req)) {
      targets_.push_back(Mhz{u});
    }
    return targets_;
  }

 private:
  PolicyPlatform platform_;
  std::vector<Mhz> targets_;
};

}  // namespace

int main() {
  Package package(Ryzen1700X());  // Per-core power telemetry available.
  MsrFile msr(&package);

  // Equal configured shares; efficiency decides.  exchange2 is
  // compute-efficient, omnetpp is memory-bound, cam4 burns AVX power.
  const std::vector<std::string> names = {"exchange2", "leela", "omnetpp", "cam4"};
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> apps;
  for (size_t i = 0; i < names.size(); i++) {
    procs.push_back(std::make_unique<Process>(GetProfile(names[i]), 1 + i));
    package.AttachWork(static_cast<int>(i), procs.back().get());
    apps.push_back(ManagedApp{.name = names[i], .cpu = static_cast<int>(i), .shares = 1.0});
  }

  PowerDaemon daemon(&msr, apps, {.power_limit_w = Watts{30.0}},
                     std::make_unique<EfficiencyShares>(MakePolicyPlatform(package.spec())));
  daemon.Start();

  Simulator sim(&package);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](papd::Seconds) { daemon.Step(); });
  sim.Run(Seconds{60.0});

  const TelemetrySample& sample = daemon.last_sample();
  std::printf("efficiency shares under a 30 W limit (equal configured shares):\n");
  std::printf("  package power %5.1f W\n", sample.pkg_w.value());
  for (const auto& app : apps) {
    const auto& core = sample.cores[static_cast<size_t>(app.cpu)];
    const Watts core_w = core.core_w.value_or(Watts{0.0});
    std::printf("  %-10s %5.0f MHz  %5.2f Ginstr/s  %4.1f W  %5.2f Ginstr/J\n",
                app.name.c_str(), core.active_mhz.value(), core.ips.value() / 1e9, core_w.value(),
                core_w > Watts{0.0} ? core.ips.value() / core_w.value() / 1e9 : 0.0);
  }
  std::printf(
      "\nThe high-IPC apps (exchange2, leela) hold high frequencies while the\n"
      "memory-bound app (omnetpp) is throttled toward the floor.\n");
  return 0;
}
