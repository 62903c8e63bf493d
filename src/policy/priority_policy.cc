#include "src/policy/priority_policy.h"

#include <algorithm>
#include <cmath>

#include "src/policy/min_funding.h"
#include "src/policy/share_policy.h"

namespace papd {

std::vector<Mhz> PriorityPolicy::InitialDistribution(const std::vector<ManagedApp>& apps,
                                                     Watts limit_w) {
  (void)limit_w;
  targets_.clear();
  targets_.reserve(apps.size());
  for (const ManagedApp& app : apps) {
    if (app.high_priority) {
      targets_.push_back(AppMaxMhz(app, platform_));
    } else {
      targets_.push_back(options_.starve_lp ? kStopped : platform_.min_mhz);
    }
  }
  return targets_;
}

bool PriorityPolicy::AnyRunning(const std::vector<ManagedApp>& apps, bool high_priority) const {
  for (size_t i = 0; i < apps.size(); i++) {
    if (apps[i].high_priority == high_priority && targets_[i] != kStopped) {
      return true;
    }
  }
  return false;
}

bool PriorityPolicy::AnyRunningAbove(const std::vector<ManagedApp>& apps, bool high_priority,
                                     Mhz threshold) const {
  for (size_t i = 0; i < apps.size(); i++) {
    if (apps[i].high_priority == high_priority && targets_[i] != kStopped &&
        targets_[i] > threshold + Mhz{1e-9}) {
      return true;
    }
  }
  return false;
}

bool PriorityPolicy::AnyBelowCeiling(const std::vector<ManagedApp>& apps,
                                     bool high_priority) const {
  for (size_t i = 0; i < apps.size(); i++) {
    if (apps[i].high_priority == high_priority && targets_[i] != kStopped &&
        targets_[i] < AppMaxMhz(apps[i], platform_) - Mhz{1e-9}) {
      return true;
    }
  }
  return false;
}

void PriorityPolicy::ApplyDeltaToClass(const std::vector<ManagedApp>& apps, bool high_priority,
                                       Mhz freq_delta) {
  std::vector<size_t> members;
  std::vector<ResourceUnits> current;
  std::vector<ShareRequest> req;
  for (size_t i = 0; i < apps.size(); i++) {
    if (apps[i].high_priority != high_priority || targets_[i] == kStopped) {
      continue;
    }
    members.push_back(i);
    current.push_back(AsResourceUnits(targets_[i]));
    req.push_back(ShareRequest{
        .shares = 1.0,  // Equal P-states within a class.
        .minimum = AsResourceUnits(platform_.min_mhz),
        .maximum = AsResourceUnits(AppMaxMhz(apps[i], platform_)),
    });
  }
  if (members.empty()) {
    return;
  }
  const std::vector<ResourceUnits> updated =
      DistributeDelta(AsResourceUnits(freq_delta), current, req);
  for (size_t m = 0; m < members.size(); m++) {
    targets_[members[m]] = Mhz{updated[m]};
  }
}

std::vector<Mhz> PriorityPolicy::Redistribute(const std::vector<ManagedApp>& apps,
                                              const TelemetrySample& sample, Watts limit_w) {
  const Watts power_delta{limit_w - sample.pkg_w};
  const double alpha = AlphaOf(power_delta, platform_.max_power_w);

  if (power_delta < -kToleranceW) {
    // Over budget.  Revoke from LP first (paper: LP apps receive only
    // residual power), then stop LP apps, and only then slow HP apps.
    if (AnyRunningAbove(apps, /*high_priority=*/false, platform_.min_mhz)) {
      int lp_running = 0;
      for (size_t i = 0; i < apps.size(); i++) {
        if (!apps[i].high_priority && targets_[i] != kStopped) {
          lp_running++;
        }
      }
      const Mhz delta{alpha * platform_.max_mhz * lp_running};  // Negative.
      ApplyDeltaToClass(apps, /*high_priority=*/false, delta);
      return targets_;
    }
    if (options_.starve_lp && power_delta < -kStopDeficitW &&
        AnyRunning(apps, /*high_priority=*/false)) {
      // Stop the most recently admitted LP app (highest index still
      // running), freeing its minimum-P-state power and a turbo slot.
      for (size_t i = apps.size(); i-- > 0;) {
        if (!apps[i].high_priority && targets_[i] != kStopped) {
          targets_[i] = kStopped;
          return targets_;
        }
      }
    }
    int hp_running = 0;
    for (size_t i = 0; i < apps.size(); i++) {
      if (apps[i].high_priority && targets_[i] != kStopped) {
        hp_running++;
      }
    }
    if (hp_running > 0) {
      const Mhz delta{alpha * platform_.max_mhz * hp_running};  // Negative.
      ApplyDeltaToClass(apps, /*high_priority=*/true, delta);
    }
    return targets_;
  }

  if (power_delta > kToleranceW) {
    // Headroom.  Raise HP to maximum (or highest useful frequency) first.
    if (AnyBelowCeiling(apps, /*high_priority=*/true)) {
      int hp_running = 0;
      for (size_t i = 0; i < apps.size(); i++) {
        if (apps[i].high_priority && targets_[i] != kStopped) {
          hp_running++;
        }
      }
      const Mhz delta{alpha * platform_.max_mhz * hp_running};
      ApplyDeltaToClass(apps, /*high_priority=*/true, delta);
      return targets_;
    }
    // HP saturated: admit one stopped LP app per period (so its measured
    // power lands in the next sample before further admissions), lowest
    // index first.
    if (power_delta > kStartHeadroomW) {
      for (size_t i = 0; i < apps.size(); i++) {
        if (!apps[i].high_priority && targets_[i] == kStopped) {
          targets_[i] = platform_.min_mhz;
          return targets_;
        }
      }
    }
    // All LP apps running: raise them with the remaining headroom.
    if (AnyBelowCeiling(apps, /*high_priority=*/false)) {
      int lp_running = 0;
      for (size_t i = 0; i < apps.size(); i++) {
        if (!apps[i].high_priority && targets_[i] != kStopped) {
          lp_running++;
        }
      }
      const Mhz delta{alpha * platform_.max_mhz * lp_running};
      ApplyDeltaToClass(apps, /*high_priority=*/false, delta);
    }
    return targets_;
  }

  return targets_;
}

}  // namespace papd
