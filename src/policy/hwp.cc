#include "src/policy/hwp.h"

#include <algorithm>
#include <cmath>

namespace papd {
namespace {

// Rule 1: an app whose active/requested ratio falls below this fraction of
// the *best* ratio any app achieves has an app-specific refusal.
// Turbo-ladder gaps are shallow (~0.93 of best); AVX caps are deep (~0.6),
// so 0.85 separates them.
constexpr double kGrantRatio = 0.85;
// ...for this many consecutive periods.
constexpr int kGrantPeriods = 3;
// Rule 2: allowed performance loss at the useful max.
constexpr double kPerfLossBudget = 0.08;
// Rule 2: extra loss tolerated before an established cap is dropped (phase
// noise moves bucket EWMAs by a few percent).
constexpr double kClearHysteresis = 0.04;
// Rule 2: minimum frequency saving for a cap to be worth declaring.
constexpr Mhz kMinSavingMhz{400.0};
// IPS EWMA smoothing per bucket.
constexpr double kEwmaAlpha = 0.30;
// Frequency bucket width.
constexpr Mhz kBucketMhz{200.0};
// Probe one app every this many Observe() calls.
constexpr int kProbeInterval = 4;
// Probe this far below the app's current operating frequency.
constexpr Mhz kProbeStepMhz{500.0};

}  // namespace

SaturationDetector::SaturationDetector(PolicyPlatform platform, size_t num_apps)
    : platform_(platform), apps_(num_apps) {}

int SaturationDetector::BucketOf(Mhz mhz) const {
  return static_cast<int>(std::lround(mhz / kBucketMhz));
}

void SaturationDetector::UpdatePerfCap(AppState* state) {
  // Anchor: the best IPS observed at any frequency.
  Ips best_ips{0.0};
  Mhz best_mhz{0.0};
  for (const auto& [bucket, ips] : state->ips_by_bucket) {
    if (ips > best_ips) {
      best_ips = ips;
      best_mhz = bucket * kBucketMhz;
    }
  }
  if (best_ips <= Ips{0.0}) {
    state->perf_cap_mhz = Mhz{0.0};
    return;
  }
  // Useful max: the lowest observed frequency keeping (1 - budget) of the
  // anchor IPS.
  const Ips floor_ips{(1.0 - kPerfLossBudget) * best_ips};
  Mhz cap{best_mhz};
  for (const auto& [bucket, ips] : state->ips_by_bucket) {
    const Mhz f{bucket * kBucketMhz};
    if (f < cap && ips >= floor_ips) {
      cap = f;
    }
  }
  Mhz candidate{0.0};
  // Only worth declaring if it saves a meaningful slice of frequency.
  if (best_mhz - cap >= kMinSavingMhz) {
    candidate = std::max(cap, platform_.min_mhz);
  }
  // Hysteresis: once capped, the app runs *at* the cap, so only the cap
  // bucket's EWMA refreshes and phase noise can push it just under the
  // floor.  Keep an established cap while its bucket stays within the
  // relaxed floor.
  if (state->perf_cap_mhz > Mhz{0.0} && (candidate == Mhz{0.0} || candidate > state->perf_cap_mhz)) {
    const auto it = state->ips_by_bucket.find(BucketOf(state->perf_cap_mhz));
    const Ips keep_floor{(1.0 - kPerfLossBudget - kClearHysteresis) * best_ips};
    if (it != state->ips_by_bucket.end() && it->second >= keep_floor) {
      return;  // Keep the existing cap.
    }
  }
  state->perf_cap_mhz = candidate;
}

void SaturationDetector::Observe(const std::vector<ManagedApp>& apps,
                                 const TelemetrySample& sample,
                                 const std::vector<Mhz>& requested) {
  periods_++;
  // Package-wide clamps (RAPL, turbo ladder) depress every core's
  // active/requested ratio at once; an app-specific refusal shows as a gap
  // much deeper than the best ratio achieved by anyone this period.
  double best_ratio = 0.0;
  for (size_t i = 0; i < apps.size(); i++) {
    const auto& core = sample.cores[static_cast<size_t>(apps[i].cpu)];
    if (i < requested.size() && requested[i] > Mhz{0.0} && core.busy > 0.5) {
      best_ratio = std::max(best_ratio, core.active_mhz / requested[i]);
    }
  }

  for (size_t i = 0; i < apps.size(); i++) {
    AppState& state = apps_[i];
    const auto& core = sample.cores[static_cast<size_t>(apps[i].cpu)];
    if (i >= requested.size() || requested[i] <= Mhz{0.0} || core.busy <= 0.5) {
      state.gap_streak = 0;
      continue;
    }

    state.last_active_mhz = core.active_mhz;

    // --- Rule 1: refused frequency grants -----------------------------
    // Compare against the best ratio achieved by anyone: package-wide
    // clamps (turbo ladder, RAPL) depress every ratio together, while an
    // app-specific refusal (AVX cap) leaves this app well below its peers.
    const double ratio = core.active_mhz / requested[i];
    const bool app_specific_gap =
        best_ratio > 0.0 && ratio < kGrantRatio * best_ratio;
    if (app_specific_gap) {
      state.gap_streak++;
      if (state.gap_streak >= kGrantPeriods) {
        // Round up to the grid so the cap never under-grants.
        const double steps = std::ceil(core.active_mhz / platform_.step_mhz - 1e-9);
        state.gap_cap_mhz = std::min(platform_.max_mhz, steps * platform_.step_mhz);
      }
    } else {
      state.gap_streak = 0;
      // If the app now achieves frequencies above a rule-1 cap, the cap was
      // stale (e.g. the AVX phase ended): clear it.
      if (state.gap_cap_mhz > Mhz{0.0} &&
          core.active_mhz > state.gap_cap_mhz + platform_.step_mhz) {
        state.gap_cap_mhz = Mhz{0.0};
      }
    }

    // --- Rule 2: lowest frequency preserving near-peak IPS --------------
    const int bucket = BucketOf(core.active_mhz);
    auto [it, inserted] = state.ips_by_bucket.emplace(bucket, core.ips);
    if (!inserted) {
      it->second += kEwmaAlpha * (core.ips - it->second);
    }
    UpdatePerfCap(&state);
  }
}

std::vector<Mhz> SaturationDetector::ApplyProbes(const std::vector<ManagedApp>& apps,
                                                 const std::vector<Mhz>& targets) {
  probe_app_ = -1;
  if (periods_ % kProbeInterval != 0) {
    return targets;
  }
  // Round-robin over apps; probe the first with unexplored curve below its
  // operating point.  Exploration walks downward from the lowest mapped
  // bucket and stops once a bucket falls outside the performance budget —
  // at that point the useful-max estimate is bounded on both sides.
  std::vector<Mhz> out = targets;
  const size_t n = apps.size();
  for (size_t k = 0; k < n; k++) {
    const size_t i = (static_cast<size_t>(periods_) / kProbeInterval + k) % n;
    if (i >= targets.size() || targets[i] <= Mhz{0.0}) {
      continue;  // Stopped app.
    }
    const AppState& state = apps_[i];
    // Probe below the achieved operating point (the target may be
    // unreachable under package-wide clamps).
    const Mhz base = state.last_active_mhz > Mhz{0.0}
                         ? std::min(targets[i], state.last_active_mhz)
                         : targets[i];
    Mhz probe;
    if (state.ips_by_bucket.empty()) {
      probe = base - kProbeStepMhz;
    } else {
      Ips best_ips{0.0};
      for (const auto& [bucket, ips] : state.ips_by_bucket) {
        best_ips = std::max(best_ips, ips);
      }
      const auto lowest = state.ips_by_bucket.begin();
      if (lowest->second < (1.0 - kPerfLossBudget) * best_ips) {
        continue;  // Curve mapped past the knee; nothing left to learn.
      }
      probe = lowest->first * kBucketMhz - kProbeStepMhz;
    }
    if (probe < platform_.min_mhz || probe >= base ||
        state.ips_by_bucket.count(BucketOf(probe)) != 0) {
      continue;
    }
    out[i] = probe;
    probe_app_ = static_cast<int>(i);
    break;
  }
  return out;
}

Mhz SaturationDetector::UsefulMaxMhz(size_t app_index) const {
  const AppState& state = apps_[app_index];
  if (state.gap_cap_mhz > Mhz{0.0} && state.perf_cap_mhz > Mhz{0.0}) {
    return std::min(state.gap_cap_mhz, state.perf_cap_mhz);
  }
  return std::max(state.gap_cap_mhz, state.perf_cap_mhz);
}

}  // namespace papd
