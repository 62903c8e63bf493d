// Two-level priority policy (paper Sections 4.1 and 5.1).
//
// High-priority (HP) applications run at the highest P-state the power
// limit allows; low-priority (LP) applications receive only residual
// power.  The daemon starts HP apps at the maximum P-state and throttles
// them (equally) if the budget is exceeded; with headroom left after HP
// apps saturate, LP apps are started at the slowest P-state and raised.
//
// Starvation: following the paper's implementation choice, when there is
// not enough residual power to run every LP app at the minimum P-state the
// remaining LP apps are not started at all (their cores are put in a deep
// C-state), which both saves their idle power and frees turbo headroom for
// the HP apps — the effect behind Figure 7's "HP runs faster at 40 W than
// at 85 W" observation.  The alternative the paper discusses (throttle HP
// so every LP can run at minimum speed) is available as an option and
// evaluated by the ablation bench.

#ifndef SRC_POLICY_PRIORITY_POLICY_H_
#define SRC_POLICY_PRIORITY_POLICY_H_

#include <string>
#include <vector>

#include "src/msr/turbostat.h"
#include "src/policy/app_model.h"
#include "src/policy/share_policy.h"

namespace papd {

class PriorityPolicy : public ShareResource {
 public:
  struct Options {
    // True (paper default): LP apps may be left stopped / be stopped when
    // power is short.  False: every app is guaranteed the minimum P-state
    // and only HP throttling reclaims power.
    bool starve_lp = true;
  };

  // Target value meaning "app not running; core offlined".
  static constexpr Mhz kStopped{-1.0};

  PriorityPolicy(PolicyPlatform platform, Options options)
      : platform_(platform), options_(options) {}

  std::string Name() const override { return "priority"; }

  // HP apps at the maximum P-state; LP apps stopped (starvation mode) or at
  // the minimum P-state.  The control loop starts LP apps as measured
  // headroom allows.
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override;

  // One control iteration.
  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps,
                                const TelemetrySample& sample, Watts limit_w) override;

  const std::vector<Mhz>& targets() const { return targets_; }
  const Options& options() const { return options_; }

 private:
  // Applies a frequency delta across the running apps selected by `pick`,
  // equally weighted (within a priority class all apps run at the same
  // P-state absent a separate share policy), bounded by the platform range.
  void ApplyDeltaToClass(const std::vector<ManagedApp>& apps, bool high_priority,
                         Mhz freq_delta);

  bool AnyRunning(const std::vector<ManagedApp>& apps, bool high_priority) const;
  bool AnyRunningAbove(const std::vector<ManagedApp>& apps, bool high_priority,
                       Mhz threshold) const;
  // True if any running app in the class sits below its own frequency
  // ceiling (platform max tightened by HWP hints).
  bool AnyBelowCeiling(const std::vector<ManagedApp>& apps, bool high_priority) const;

  PolicyPlatform platform_;
  Options options_;
  std::vector<Mhz> targets_;

  // Hysteresis thresholds: starting an LP app costs roughly one
  // minimum-P-state core (~1.5 W), so demand slightly more headroom than
  // that before starting, and a real deficit before stopping.
  static constexpr Watts kStartHeadroomW{1.6};
  static constexpr Watts kStopDeficitW{1.5};
  static constexpr Watts kToleranceW{0.75};
};

}  // namespace papd

#endif  // SRC_POLICY_PRIORITY_POLICY_H_
