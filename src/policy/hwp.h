// HWP-style saturation detection: the "highest useful frequency".
//
// Paper Section 4.4: "both priority and proportional-share policies can be
// modified to try to run applications at the highest useful frequency
// rather than the highest possible frequency.  Hardware support such as
// Intel's HWP can help identify this point."  Intel's HWP/CPPC does this in
// firmware with an abstract performance metric; we implement the software
// equivalent over the telemetry the daemon already samples.
//
// Two saturation signatures are detected, per app:
//
//  1. Refused frequency grants (AVX caps).  The core persistently runs
//     below its requested frequency while other cores achieve theirs — the
//     silicon is refusing the request (AVX frequency limits), so requesting
//     more is pointless.  Useful max := the achieved frequency.
//
//  2. Performance saturation (memory-bound codes).  The detector maintains
//     per-frequency-bucket EWMAs of measured IPS and defines the useful
//     max as the *lowest* observed frequency that still delivers at least
//     (1 - epsilon) of the best observed IPS — i.e. "how slow can this app
//     run while keeping 1-epsilon of its peak performance?".  Anchoring the
//     criterion to the globally best bucket (rather than comparing adjacent
//     points) keeps repeated local comparisons from ratcheting the cap to
//     the floor of a smoothly saturating curve.  A cap is only declared if
//     it saves a meaningful amount of frequency, so linear-scaling apps are
//     never capped.
//
// Steady-state control provides no frequency diversity, so signature 2
// needs *probing*, exactly as HWP autonomously explores performance
// levels: every few periods the detector asks the daemon to run one
// not-yet-mapped app one notch below its current frequency for a single
// period.  The probe costs that app a few hundred MHz for one period out
// of many — negligible — and fills in the IPS-vs-frequency curve.

#ifndef SRC_POLICY_HWP_H_
#define SRC_POLICY_HWP_H_

#include <map>
#include <vector>

#include "src/msr/turbostat.h"
#include "src/policy/app_model.h"

namespace papd {

class SaturationDetector {
 public:
  // The detection thresholds, EWMA smoothing and probe cadence are
  // constants in hwp.cc.
  SaturationDetector(PolicyPlatform platform, size_t num_apps);

  // Feeds one control period's telemetry.  `requested` is the frequency the
  // daemon actually programmed for each app this period (including any
  // probe override).
  void Observe(const std::vector<ManagedApp>& apps, const TelemetrySample& sample,
               const std::vector<Mhz>& requested);

  // Applies at most one probe override to the policy's targets; returns the
  // (possibly modified) targets to program this period.  Call after
  // Observe() each period when probing is desired.
  std::vector<Mhz> ApplyProbes(const std::vector<ManagedApp>& apps,
                               const std::vector<Mhz>& targets);

  // Current estimate of the app's highest useful frequency; 0 = no
  // saturation detected.
  Mhz UsefulMaxMhz(size_t app_index) const;

 private:
  struct AppState {
    int gap_streak = 0;
    Mhz gap_cap_mhz{0.0};     // Rule-1 cap; 0 = none.
    std::map<int, Ips> ips_by_bucket;
    Mhz perf_cap_mhz{0.0};    // Rule-2 cap; 0 = none.
    Mhz last_active_mhz{0.0};  // Most recent achieved frequency.
  };

  int BucketOf(Mhz mhz) const;
  void UpdatePerfCap(AppState* state);

  PolicyPlatform platform_;
  std::vector<AppState> apps_;
  int periods_ = 0;
  int probe_app_ = -1;  // App probed this period; -1 = none.
};

}  // namespace papd

#endif  // SRC_POLICY_HWP_H_
