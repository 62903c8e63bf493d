#include "src/governor/governor.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/policy/share_policy.h"

namespace papd {
namespace {

// Ondemand: utilization at which the request jumps straight to max.
constexpr double kOndemandUpThreshold = 0.80;
// Ondemand: proportional target = util * max / this factor, i.e. keep some
// headroom so bursts don't immediately saturate.
constexpr double kOndemandHeadroom = 0.80;
// Conservative: step up at or above, down at or below these utilizations.
constexpr double kConservativeUpThreshold = 0.80;
constexpr double kConservativeDownThreshold = 0.20;
// Conservative: step per decision as a fraction of the frequency range.
constexpr double kConservativeFreqStep = 0.05;

}  // namespace

const char* GovernorKindName(GovernorKind kind) {
  switch (kind) {
    case GovernorKind::kPerformance:
      return "performance";
    case GovernorKind::kPowersave:
      return "powersave";
    case GovernorKind::kOndemand:
      return "ondemand";
    case GovernorKind::kConservative:
      return "conservative";
  }
  return "?";
}

Mhz GovernorDecision(GovernorKind kind, const PStateTable& grid, double utilization,
                     Mhz current_mhz) {
  switch (kind) {
    case GovernorKind::kPerformance:
      return grid.max_mhz();
    case GovernorKind::kPowersave:
      return grid.min_mhz();
    case GovernorKind::kOndemand:
      if (utilization >= kOndemandUpThreshold) {
        return grid.max_mhz();
      }
      return grid.QuantizeNearest(utilization * grid.max_mhz() / kOndemandHeadroom);
    case GovernorKind::kConservative: {
      const Mhz step =
          std::max(grid.step_mhz(), kConservativeFreqStep * (grid.max_mhz() - grid.min_mhz()));
      if (utilization >= kConservativeUpThreshold) {
        return grid.QuantizeNearest(current_mhz + step);
      }
      if (utilization <= kConservativeDownThreshold) {
        return grid.QuantizeNearest(current_mhz - step);
      }
      return grid.QuantizeNearest(current_mhz);
    }
  }
  PAPD_CHECK(false) << " GovernorKind " << static_cast<int>(kind) << " unknown";
  return grid.min_mhz();
}

namespace {

// The `kind` governor on each managed app's core.
class GovernorPolicy : public ShareResource {
 public:
  GovernorPolicy(GovernorKind kind, const PlatformSpec& spec)
      : kind_(kind), grid_(spec.PStates()), start_mhz_(spec.base_max_mhz) {}

  std::string Name() const override { return GovernorKindName(kind_); }

  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override {
    (void)limit_w;
    requests_.assign(apps.size(), start_mhz_);
    return requests_;
  }

  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps,
                                const TelemetrySample& sample, Watts limit_w) override {
    (void)limit_w;
    for (size_t i = 0; i < apps.size(); i++) {
      const int c = apps[i].cpu;
      const CoreTelemetry& core = sample.cores[static_cast<size_t>(c)];
      if (!core.online || !core.plausible) {
        continue;  // Hold this core; its busy reading is not this period's.
      }
      Mhz& request = requests_[i];
      request = GovernorDecision(kind_, grid_, core.busy, request);
      PAPD_CHECK(IsFinite(request)) << " governor decision for core " << c << " is non-finite";
      PAPD_CHECK_GE(request, grid_.min_mhz()) << " governor decision for core " << c;
      PAPD_CHECK_LE(request, grid_.max_mhz()) << " governor decision for core " << c;
      PAPD_CHECK(grid_.OnGrid(request))
          << " governor decision " << request << " MHz for core " << c << " off the "
          << grid_.step_mhz() << " MHz grid";
    }
    return requests_;
  }

 private:
  GovernorKind kind_;
  PStateTable grid_;
  Mhz start_mhz_;
  std::vector<Mhz> requests_;  // Per app.
};

}  // namespace

std::unique_ptr<PowerDaemon> StartGovernor(MsrFile* msr, GovernorKind kind, DaemonObs obs) {
  std::vector<ManagedApp> cores;
  for (int c = 0; c < msr->num_cores(); c++) {
    cores.push_back(ManagedApp{.cpu = c});
  }
  auto daemon = std::make_unique<PowerDaemon>(msr, std::move(cores),
                                              DaemonConfig{.power_limit_w = msr->spec().tdp_w,
                                                           .period_s = kGovernorPeriod,
                                                           .audit = false,
                                                           .obs = obs},
                                              std::make_unique<GovernorPolicy>(kind, msr->spec()));
  daemon->Start();
  return daemon;
}

}  // namespace papd
