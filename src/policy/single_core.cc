#include "src/policy/single_core.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"

namespace papd {

SingleCoreSharing::SingleCoreSharing(PolicyPlatform platform, std::vector<Member> members)
    : platform_(platform), members_(std::move(members)), freq_mhz_(platform_.max_mhz) {
  PAPD_CHECK(!members_.empty());
}

SingleCoreSharing::Scenario SingleCoreSharing::ClassifyScenario() const {
  double min_demand = members_[0].demand;
  double max_demand = members_[0].demand;
  bool mixed_priority = false;
  for (const Member& m : members_) {
    min_demand = std::min(min_demand, m.demand);
    max_demand = std::max(max_demand, m.demand);
    if (m.high_priority != members_[0].high_priority) {
      mixed_priority = true;
    }
  }
  const bool mixed_demand = max_demand > kDemandTolerance * min_demand;
  if (!mixed_demand) {
    return Scenario::kEqualDemand;
  }
  return mixed_priority ? Scenario::kMixedDemandMixedPriority
                        : Scenario::kMixedDemandEqualPriority;
}

SingleCoreSharing::Decision SingleCoreSharing::Recompute() {
  Decision d;
  d.freq_mhz = std::clamp(freq_mhz_, platform_.min_mhz, platform_.max_mhz);

  const double total_shares =
      std::accumulate(members_.begin(), members_.end(), 0.0,
                      [](double acc, const Member& m) { return acc + m.shares; });
  std::vector<double> residencies(members_.size());
  for (size_t i = 0; i < members_.size(); i++) {
    residencies[i] = total_shares > 0.0 ? members_[i].shares / total_shares : 0.0;
  }

  switch (ClassifyScenario()) {
    case Scenario::kEqualDemand:
      // Scenario 1: shares map directly onto residency; frequency is the
      // only power knob.
      break;

    case Scenario::kMixedDemandEqualPriority: {
      // Scenario 2: compensate low-demand members for frequency throttling
      // with extra runtime.  A member's throughput is ~ residency x f, so
      // scaling the low-demand member's residency by f_max / f restores its
      // share of work; the scaled residencies are renormalized so the core
      // stays fully subscribed and high-demand members absorb the loss.
      double mean_demand = 0.0;
      for (const Member& m : members_) {
        mean_demand += m.demand / static_cast<double>(members_.size());
      }
      const double boost = std::min(3.0, platform_.max_mhz / d.freq_mhz);
      double sum = 0.0;
      for (size_t i = 0; i < members_.size(); i++) {
        if (members_[i].demand < mean_demand) {
          residencies[i] *= boost;
        }
        sum += residencies[i];
      }
      for (double& r : residencies) {
        r /= sum;
      }
      break;
    }

    case Scenario::kMixedDemandMixedPriority: {
      // Scenario 3.  Find the HP member; the core's frequency serves it.
      size_t hp = 0;
      for (size_t i = 0; i < members_.size(); i++) {
        if (members_[i].high_priority) {
          hp = i;
          break;
        }
      }
      double max_hp_demand = 0.0;
      double max_lp_demand = 0.0;
      for (const Member& m : members_) {
        (m.high_priority ? max_hp_demand : max_lp_demand) =
            std::max(m.high_priority ? max_hp_demand : max_lp_demand, m.demand);
      }
      if (max_lp_demand > kDemandTolerance * members_[hp].demand &&
          d.freq_mhz < platform_.max_mhz - platform_.step_mhz) {
        // LDHP + HDLP and the power feedback could not hold the maximum
        // frequency: the high-demand LP members are the reason.  Evict them
        // so the HP app gets its full frequency (paper: "the HDLP
        // application does not run at all").
        double sum = 0.0;
        for (size_t i = 0; i < members_.size(); i++) {
          if (!members_[i].high_priority &&
              members_[i].demand > kDemandTolerance * members_[hp].demand) {
            residencies[i] = 0.0;
          }
          sum += residencies[i];
        }
        if (sum > 0.0) {
          for (double& r : residencies) {
            r /= sum;
          }
        }
      }
      // HDHP (or compatible demands): everyone shares the core at the HP
      // app's frequency — the LDLP member simply runs slower than alone.
      break;
    }
  }

  d.residencies = std::move(residencies);
  decision_ = d;
  return decision_;
}

SingleCoreSharing::Decision SingleCoreSharing::Initial(Watts core_limit_w) {
  // Crude linear power-to-frequency start; feedback refines it.
  const double t = std::clamp(
      (core_limit_w - platform_.core_min_w) / (platform_.core_max_w - platform_.core_min_w),
      0.0, 1.0);
  freq_mhz_ = platform_.min_mhz + t * (platform_.max_mhz - platform_.min_mhz);
  return Recompute();
}

SingleCoreSharing::Decision SingleCoreSharing::Step(Watts core_limit_w,
                                                    Watts measured_core_w) {
  freq_mhz_ = std::clamp(freq_mhz_ + MhzPerWattGain(kGainMhzPerWatt, core_limit_w - measured_core_w),
                         platform_.min_mhz, platform_.max_mhz);
  return Recompute();
}

}  // namespace papd
