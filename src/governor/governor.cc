#include "src/governor/governor.h"

#include <algorithm>
#include <cmath>
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

Mhz Quantize(Mhz mhz, const GovernorLimits& limits) {
  const double steps = std::round((mhz - limits.min_mhz) / limits.step_mhz);
  return std::clamp(limits.min_mhz + steps * limits.step_mhz, limits.min_mhz, limits.max_mhz);
}

}  // namespace

Mhz PerformanceGovernor::Decide(double utilization, Mhz current_mhz) {
  (void)utilization;
  (void)current_mhz;
  return limits_.max_mhz;
}

Mhz PowersaveGovernor::Decide(double utilization, Mhz current_mhz) {
  (void)utilization;
  (void)current_mhz;
  return limits_.min_mhz;
}

Mhz OndemandGovernor::Decide(double utilization, Mhz current_mhz) {
  (void)current_mhz;
  if (utilization >= kOndemandUpThreshold) {
    return limits_.max_mhz;
  }
  return Quantize(utilization * limits_.max_mhz / kOndemandHeadroom, limits_);
}

Mhz ConservativeGovernor::Decide(double utilization, Mhz current_mhz) {
  const Mhz step =
      std::max(limits_.step_mhz, kConservativeFreqStep * (limits_.max_mhz - limits_.min_mhz));
  if (utilization >= kConservativeUpThreshold) {
    return Quantize(current_mhz + step, limits_);
  }
  if (utilization <= kConservativeDownThreshold) {
    return Quantize(current_mhz - step, limits_);
  }
  return Quantize(current_mhz, limits_);
}

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

std::unique_ptr<FreqGovernor> MakeGovernor(GovernorKind kind, GovernorLimits limits) {
  switch (kind) {
    case GovernorKind::kPerformance:
      return std::make_unique<PerformanceGovernor>(limits);
    case GovernorKind::kPowersave:
      return std::make_unique<PowersaveGovernor>(limits);
    case GovernorKind::kOndemand:
      return std::make_unique<OndemandGovernor>(limits);
    case GovernorKind::kConservative:
      return std::make_unique<ConservativeGovernor>(limits);
  }
  return nullptr;
}

namespace {

// One governor of `kind` per managed app, deciding for the app's core.
class GovernorPolicy : public ShareResource {
 public:
  GovernorPolicy(GovernorKind kind, const PlatformSpec& spec)
      : kind_(kind),
        limits_{.min_mhz = spec.min_mhz, .max_mhz = spec.turbo_max_mhz, .step_mhz = spec.step_mhz},
        start_mhz_(spec.base_max_mhz) {}

  std::string Name() const override { return GovernorKindName(kind_); }

  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override {
    (void)limit_w;
    governors_.clear();
    for (size_t i = 0; i < apps.size(); i++) {
      governors_.push_back(MakeGovernor(kind_, limits_));
    }
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
      request = governors_[i]->Decide(core.busy, request);
      PAPD_CHECK(IsFinite(request)) << " governor decision for core " << c << " is non-finite";
      PAPD_CHECK_GE(request, limits_.min_mhz) << " governor decision for core " << c;
      PAPD_CHECK_LE(request, limits_.max_mhz) << " governor decision for core " << c;
      PAPD_CHECK(OnFrequencyGrid(request - limits_.min_mhz, limits_.step_mhz))
          << " governor decision " << request << " MHz for core " << c << " off the "
          << limits_.step_mhz << " MHz grid";
    }
    return requests_;
  }

 private:
  GovernorKind kind_;
  GovernorLimits limits_;
  Mhz start_mhz_;
  std::vector<std::unique_ptr<FreqGovernor>> governors_;  // Per app.
  std::vector<Mhz> requests_;                             // Per app.
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
