#include "src/policy/invariants.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/policy/frequency_shares.h"
#include "src/policy/performance_shares.h"
#include "src/policy/power_shares.h"

namespace papd {
namespace {

// Package power must be beyond the limit by more than this before the
// directional budget-conservation check applies; must exceed the policies'
// own control deadband (kPowerToleranceW) or legitimate within-deadband
// no-ops would be flagged.
constexpr Watts kConservationDeadbandW{1.0};
// Relative slack for floating-point comparisons.
constexpr double kEpsilon = 1e-6;
// --- Power ceiling (CheckPowerCeiling) ---------------------------------------
// Package power may exceed the limit by at most this much once converged.
// Covers RAPL quantization, EWMA smoothing and the sim's power-model
// transients; fault schedules that defeat degradation blow well past it.
constexpr Watts kPowerCeilingSlackW{8.0};
// Control periods ignored after Start()/SetPowerLimit before the ceiling is
// enforced — the control loop needs time to converge on a new budget.
constexpr int kPowerCeilingGracePeriods = 20;
// Consecutive over-ceiling periods (past grace) before failing; a single
// workload-phase spike the controller corrects is not a violation.
constexpr int kPowerCeilingPatience = 6;

// An app with a detected highest-useful-frequency cap (HWP hints, paper
// Section 4.4) legitimately breaks pairwise ordering: min-funding
// revocation hands its excess to apps that can still use it.
bool HasUsefulMaxCap(const ManagedApp& app) { return app.max_useful_mhz > Mhz{0.0}; }

bool IsStopped(Mhz target) { return target == PriorityPolicy::kStopped; }

}  // namespace

PolicyAuditor::PolicyAuditor(PolicyPlatform platform, int max_simultaneous_pstates,
                             AuditOptions options)
    : platform_(platform),
      max_simultaneous_pstates_(max_simultaneous_pstates),
      options_(options) {}

void PolicyAuditor::Fail(const char* stage, const std::string& message) {
  if (options_.fatal) {
    PAPD_CHECK(false) << "policy invariant violated [" << stage << "]:" << message;
  }
  PAPD_LOG_ERROR("policy invariant violated [%s]: %s", stage, message.c_str());
  violations_.push_back(Violation{stage, message});
}

PolicyAuditor::NativeView PolicyAuditor::NativeTargets(const ShareResource* policy,
                                                       const std::vector<Mhz>& targets) const {
  NativeView view;
  if (const auto* freq = dynamic_cast<const FrequencyShares*>(policy)) {
    view.domain = "frequency";
    for (Mhz f : freq->targets()) {
      view.values.push_back(AsResourceUnits(f));
    }
    view.scale = AsResourceUnits(platform_.max_mhz);
  } else if (const auto* perf = dynamic_cast<const PerformanceShares*>(policy)) {
    view.domain = "performance";
    view.values = perf->performance_targets();
    view.scale = 1.0;
  } else if (const auto* power = dynamic_cast<const PowerShares*>(policy)) {
    view.domain = "power";
    for (Watts w : power->power_targets()) {
      view.values.push_back(AsResourceUnits(w));
    }
    view.scale = AsResourceUnits(platform_.core_max_w);
  } else if (dynamic_cast<const PriorityPolicy*>(policy) != nullptr) {
    view.domain = "running-frequency";
    for (Mhz t : targets) {
      view.values.push_back(IsStopped(t) ? 0.0 : AsResourceUnits(t));
    }
    view.scale = AsResourceUnits(platform_.max_mhz);
  }
  return view;
}

void PolicyAuditor::CheckTargetsWellFormed(const char* stage,
                                           const std::vector<ManagedApp>& apps,
                                           const std::vector<Mhz>& targets,
                                           bool allow_stopped) {
  if (targets.size() != apps.size()) {
    std::ostringstream os;
    os << " produced " << targets.size() << " targets for " << apps.size() << " apps";
    Fail(stage, os.str());
    return;
  }
  const Mhz tol = kEpsilon * platform_.max_mhz;
  for (size_t i = 0; i < targets.size(); i++) {
    const Mhz t{targets[i]};
    if (allow_stopped && IsStopped(t)) {
      continue;
    }
    if (!IsFinite(t)) {
      std::ostringstream os;
      os << " non-finite target for app " << i << " (" << apps[i].name << ")";
      Fail(stage, os.str());
      continue;
    }
    if (t < platform_.min_mhz - tol) {
      std::ostringstream os;
      os << " target " << t << " MHz for app " << i << " (" << apps[i].name
         << ") below platform minimum " << platform_.min_mhz << " MHz";
      Fail(stage, os.str());
    }
    const Mhz ceiling{AppMaxMhz(apps[i], platform_)};
    if (t > ceiling + tol) {
      std::ostringstream os;
      os << " target " << t << " MHz for app " << i << " (" << apps[i].name
         << ") above its ceiling " << ceiling << " MHz";
      Fail(stage, os.str());
    }
  }
}

void PolicyAuditor::CheckShareMonotonicity(const char* stage,
                                           const std::vector<ManagedApp>& apps,
                                           const NativeView& view) {
  if (view.domain == nullptr || view.values.size() != apps.size()) {
    return;
  }
  const double tol = kEpsilon * std::max(1.0, view.scale);
  for (size_t i = 0; i < apps.size(); i++) {
    if (HasUsefulMaxCap(apps[i])) {
      continue;
    }
    for (size_t j = i + 1; j < apps.size(); j++) {
      if (HasUsefulMaxCap(apps[j])) {
        continue;
      }
      const bool i_dominates = apps[i].shares > apps[j].shares;
      const size_t hi = i_dominates ? i : j;
      const size_t lo = i_dominates ? j : i;
      if (apps[hi].shares > apps[lo].shares && view.values[hi] < view.values[lo] - tol) {
        std::ostringstream os;
        os << " share monotonicity broken in the " << view.domain << " domain: app " << hi
           << " (" << apps[hi].name << ", " << apps[hi].shares << " shares) got "
           << view.values[hi] << " but app " << lo << " (" << apps[lo].name << ", "
           << apps[lo].shares << " shares) got " << view.values[lo];
        Fail(stage, os.str());
      }
    }
  }
}

void PolicyAuditor::CheckInitialDistribution(const ShareResource* policy,
                                             const std::vector<ManagedApp>& apps,
                                             Watts limit_w,
                                             const std::vector<Mhz>& targets) {
  const auto* priority = dynamic_cast<const PriorityPolicy*>(policy);
  CheckTargetsWellFormed("initial", apps, targets, /*allow_stopped=*/priority != nullptr);
  const NativeView view = NativeTargets(policy, targets);
  if (priority != nullptr) {
    CheckPriorityStart(priority->options(), apps, targets);
  } else {
    CheckShareMonotonicity("initial", apps, view);
  }

  // Power shares is the one policy whose initial native allocation is an
  // explicit budget split, so Σ targets must conserve the core budget:
  // limit minus the uncore estimate, floored at every core's minimum.
  if (view.domain != nullptr && std::string_view(view.domain) == "power") {
    const double budget =
        AsResourceUnits(std::max(limit_w - platform_.uncore_estimate_w,
                                 platform_.core_min_w * static_cast<double>(apps.size())));
    double sum = 0.0;
    for (double w : view.values) {
      sum += w;
    }
    if (sum > budget + kEpsilon * std::max(1.0, budget)) {
      std::ostringstream os;
      os << " power conservation broken: initial power targets sum to " << sum
         << " W but the core budget under the " << limit_w << " W limit is " << budget
         << " W";
      Fail("initial", os.str());
    }
  }

  prev_native_ = view.values;
  prev_native_scale_ = view.scale;
}

void PolicyAuditor::CheckRedistribution(const ShareResource* policy,
                                        const std::vector<ManagedApp>& apps,
                                        const TelemetrySample& sample, Watts limit_w,
                                        const std::vector<Mhz>& targets) {
  const auto* priority = dynamic_cast<const PriorityPolicy*>(policy);
  CheckTargetsWellFormed("redistribute", apps, targets, /*allow_stopped=*/priority != nullptr);
  const NativeView view = NativeTargets(policy, targets);
  if (priority != nullptr) {
    CheckPriorityOrder(priority->options(), apps, targets);
  } else {
    CheckShareMonotonicity("redistribute", apps, view);
  }

  // Directional budget conservation: while package power is over the limit
  // (beyond the control deadband), a redistribution may only shrink the
  // total native allocation — growing it would push power further past the
  // limit and the control loop would diverge.
  if (view.domain != nullptr && prev_native_.size() == view.values.size() &&
      sample.pkg_w > limit_w + kConservationDeadbandW) {
    double prev_sum = 0.0;
    double new_sum = 0.0;
    for (size_t i = 0; i < view.values.size(); i++) {
      prev_sum += prev_native_[i];
      new_sum += view.values[i];
    }
    const double tol =
        kEpsilon * std::max(1.0, prev_native_scale_) *
        static_cast<double>(view.values.size());
    if (new_sum > prev_sum + tol) {
      std::ostringstream os;
      os << " budget conservation broken in the " << view.domain
         << " domain: package power " << sample.pkg_w << " W exceeds the limit " << limit_w
         << " W but the total allocation grew from " << prev_sum << " to " << new_sum;
      Fail("redistribute", os.str());
    }
  }
  if (view.domain != nullptr) {
    prev_native_ = view.values;
    prev_native_scale_ = view.scale;
  }
}

void PolicyAuditor::CheckPriorityStart(const PriorityPolicy::Options& options,
                                       const std::vector<ManagedApp>& apps,
                                       const std::vector<Mhz>& targets) {
  // The priority policy starts from the class defaults and lets the control
  // loop pull power to the limit.
  if (targets.size() != apps.size()) {
    return;
  }
  const Mhz tol = kEpsilon * platform_.max_mhz;
  for (size_t i = 0; i < apps.size(); i++) {
    if (apps[i].high_priority) {
      const Mhz ceiling{AppMaxMhz(apps[i], platform_)};
      if (Abs(targets[i] - ceiling) > tol) {
        std::ostringstream os;
        os << " HP app " << i << " (" << apps[i].name << ") must start at its ceiling "
           << ceiling << " MHz, got " << targets[i];
        Fail("initial", os.str());
      }
    } else if (options.starve_lp) {
      if (!IsStopped(targets[i])) {
        std::ostringstream os;
        os << " LP app " << i << " (" << apps[i].name
           << ") must start stopped in starvation mode, got " << targets[i] << " MHz";
        Fail("initial", os.str());
      }
    } else if (Abs(targets[i] - platform_.min_mhz) > tol) {
      std::ostringstream os;
      os << " LP app " << i << " (" << apps[i].name
         << ") must start at the minimum P-state with starvation disabled, got "
         << targets[i] << " MHz";
      Fail("initial", os.str());
    }
  }
}

void PolicyAuditor::CheckPriorityOrder(const PriorityPolicy::Options& options,
                                       const std::vector<ManagedApp>& apps,
                                       const std::vector<Mhz>& targets) {
  if (targets.size() != apps.size()) {
    return;
  }
  const Mhz tol = kEpsilon * platform_.max_mhz;
  for (size_t i = 0; i < apps.size(); i++) {
    if (!IsStopped(targets[i])) {
      continue;
    }
    if (apps[i].high_priority) {
      std::ostringstream os;
      os << " HP app " << i << " (" << apps[i].name << ") was stopped; only LP apps starve";
      Fail("redistribute", os.str());
    } else if (!options.starve_lp) {
      std::ostringstream os;
      os << " LP app " << i << " (" << apps[i].name
         << ") was stopped although starvation is disabled";
      Fail("redistribute", os.str());
    }
  }

  // Two-level ordering: every running HP app runs at least as fast as every
  // running LP app (LP receives only residual power).  Apps with a
  // highest-useful-frequency cap are exempt — an HP app capped at 1.5 GHz
  // legitimately hands headroom to an uncapped LP app.
  for (size_t hp = 0; hp < apps.size(); hp++) {
    if (!apps[hp].high_priority || IsStopped(targets[hp]) || HasUsefulMaxCap(apps[hp])) {
      continue;
    }
    for (size_t lp = 0; lp < apps.size(); lp++) {
      if (apps[lp].high_priority || IsStopped(targets[lp]) || HasUsefulMaxCap(apps[lp])) {
        continue;
      }
      if (targets[hp] < targets[lp] - tol) {
        std::ostringstream os;
        os << " priority inversion: HP app " << hp << " (" << apps[hp].name << ") at "
           << targets[hp] << " MHz below LP app " << lp << " (" << apps[lp].name << ") at "
           << targets[lp] << " MHz";
        Fail("redistribute", os.str());
      }
    }
  }
}

void PolicyAuditor::CheckTranslation(const std::vector<Mhz>& programmed_mhz) {
  const Mhz tol = kEpsilon * platform_.max_mhz;
  std::vector<long> distinct;
  for (size_t i = 0; i < programmed_mhz.size(); i++) {
    const Mhz f{programmed_mhz[i]};
    if (!IsFinite(f)) {
      std::ostringstream os;
      os << " non-finite programmed frequency for slot " << i;
      Fail("translate", os.str());
      continue;
    }
    if (f < platform_.min_mhz - tol || f > platform_.max_mhz + tol) {
      std::ostringstream os;
      os << " programmed frequency " << f << " MHz outside the platform range ["
         << platform_.min_mhz << ", " << platform_.max_mhz << "]";
      Fail("translate", os.str());
      continue;
    }
    if (!OnFrequencyGrid(f - platform_.min_mhz, platform_.step_mhz)) {
      std::ostringstream os;
      os << " programmed frequency " << f << " MHz off the " << platform_.step_mhz
         << " MHz platform grid";
      Fail("translate", os.str());
      continue;
    }
    const long key = std::lround((f - platform_.min_mhz) / platform_.step_mhz);
    if (std::find(distinct.begin(), distinct.end(), key) == distinct.end()) {
      distinct.push_back(key);
    }
  }
  if (max_simultaneous_pstates_ > 0 &&
      static_cast<int>(distinct.size()) > max_simultaneous_pstates_) {
    std::ostringstream os;
    os << " " << distinct.size() << " distinct simultaneous frequencies programmed; the"
       << " platform supports at most " << max_simultaneous_pstates_;
    Fail("translate", os.str());
  }
}

void PolicyAuditor::CheckPowerCeiling(const TelemetrySample& sample, Watts limit_w,
                                      const std::vector<Mhz>& targets) {
  if (limit_w != ceiling_limit_w_) {
    // New (or first) budget: restart the convergence grace window.
    ceiling_limit_w_ = limit_w;
    ceiling_grace_left_ = kPowerCeilingGracePeriods;
    ceiling_over_streak_ = 0;
  }
  if (ceiling_grace_left_ > 0) {
    ceiling_grace_left_--;
    return;
  }
  const Watts ceiling_w{limit_w + kPowerCeilingSlackW};
  if (sample.pkg_w <= ceiling_w) {
    ceiling_over_streak_ = 0;
    return;
  }
  // Floor saturation: every running core already at the platform minimum
  // means the limit is unreachable for this workload; frequency scaling has
  // no correction left to apply, so over-limit power is not a policy bug.
  const Mhz tol = kEpsilon * platform_.max_mhz;
  bool all_at_floor = true;
  for (Mhz t : targets) {
    if (!IsStopped(t) && t > platform_.min_mhz + tol) {
      all_at_floor = false;
      break;
    }
  }
  if (all_at_floor) {
    return;
  }
  ceiling_over_streak_++;
  if (ceiling_over_streak_ >= kPowerCeilingPatience) {
    std::ostringstream os;
    os << " package power " << sample.pkg_w << " W above the ceiling " << ceiling_w
       << " W (limit " << limit_w << " W + slack " << kPowerCeilingSlackW
       << " W) for " << ceiling_over_streak_ << " consecutive periods";
    Fail("power-ceiling", os.str());
    ceiling_over_streak_ = 0;
  }
}

AuditedPolicy::AuditedPolicy(std::unique_ptr<ShareResource> inner, PolicyAuditor* auditor)
    : inner_(std::move(inner)), auditor_(auditor) {
  PAPD_CHECK(inner_ != nullptr);
  PAPD_CHECK(auditor_ != nullptr);
}

std::string AuditedPolicy::Name() const { return inner_->Name() + "+audited"; }

std::vector<Mhz> AuditedPolicy::InitialDistribution(const std::vector<ManagedApp>& apps,
                                                    Watts limit_w) {
  std::vector<Mhz> targets = inner_->InitialDistribution(apps, limit_w);
  auditor_->CheckInitialDistribution(inner_.get(), apps, limit_w, targets);
  return targets;
}

std::vector<Mhz> AuditedPolicy::Redistribute(const std::vector<ManagedApp>& apps,
                                             const TelemetrySample& sample, Watts limit_w) {
  std::vector<Mhz> targets = inner_->Redistribute(apps, sample, limit_w);
  auditor_->CheckRedistribution(inner_.get(), apps, sample, limit_w, targets);
  return targets;
}

namespace {

double BoundTolerance(const ShareRequest& req) {
  return 1e-6 * std::max({1.0, std::abs(req.minimum), std::abs(req.maximum)});
}

// A zero-share entry cannot absorb resource beyond its minimum, so it never
// excuses or explains a termination shortfall.
bool HasShares(const ShareRequest& req) { return req.shares > 1e-12; }

}  // namespace

std::vector<std::string> AuditProportionalSplit(ResourceUnits total,
                                                const std::vector<ShareRequest>& req,
                                                const std::vector<ResourceUnits>& alloc) {
  std::vector<std::string> violations;
  if (alloc.size() != req.size()) {
    std::ostringstream os;
    os << alloc.size() << " allocations for " << req.size() << " requests";
    violations.push_back(os.str());
    return violations;
  }
  double min_sum = 0.0;
  double max_sum = 0.0;
  double alloc_sum = 0.0;
  for (size_t i = 0; i < req.size(); i++) {
    min_sum += req[i].minimum;
    max_sum += req[i].maximum;
    alloc_sum += alloc[i];
    const double tol = BoundTolerance(req[i]);
    if (!std::isfinite(alloc[i])) {
      std::ostringstream os;
      os << "allocation " << i << " is non-finite";
      violations.push_back(os.str());
      continue;
    }
    if (alloc[i] < req[i].minimum - tol || alloc[i] > req[i].maximum + tol) {
      std::ostringstream os;
      os << "allocation " << i << " = " << alloc[i] << " outside its bounds ["
         << req[i].minimum << ", " << req[i].maximum << "]";
      violations.push_back(os.str());
    }
  }
  // Termination: a clean run distributes exactly the clamped total; a split
  // that stopped early leaves resource unassigned (or over-assigns it).  A
  // mismatch is excused only when every positive-share entry is already
  // pinned at the bound in the mismatch direction (zero-share entries can
  // never soak up the difference).
  const double clamped = std::clamp(total, min_sum, max_sum);
  const double sum_tol =
      1e-6 * std::max(1.0, std::abs(clamped)) * static_cast<double>(std::max<size_t>(req.size(), 1));
  const double miss = alloc_sum - clamped;
  if (std::abs(miss) > sum_tol) {
    bool excused = true;
    for (size_t i = 0; i < req.size(); i++) {
      if (!HasShares(req[i])) {
        continue;
      }
      const double tol = BoundTolerance(req[i]);
      if ((miss < 0.0 && alloc[i] < req[i].maximum - tol) ||
          (miss > 0.0 && alloc[i] > req[i].minimum + tol)) {
        excused = false;
        break;
      }
    }
    if (!excused) {
      std::ostringstream os;
      os << "allocations sum to " << alloc_sum << " but the clamped total is " << clamped;
      violations.push_back(os.str());
    }
  }
  return violations;
}

std::vector<std::string> AuditDeltaSplit(ResourceUnits delta,
                                         const std::vector<ResourceUnits>& current,
                                         const std::vector<ShareRequest>& req,
                                         const std::vector<ResourceUnits>& alloc) {
  std::vector<std::string> violations;
  if (alloc.size() != req.size() || current.size() != req.size()) {
    std::ostringstream os;
    os << alloc.size() << " allocations / " << current.size() << " current for "
       << req.size() << " requests";
    violations.push_back(os.str());
    return violations;
  }
  const bool adding = delta > 0.0;
  double absorbed = 0.0;
  bool all_saturated = true;
  for (size_t i = 0; i < req.size(); i++) {
    const double tol = BoundTolerance(req[i]);
    if (!std::isfinite(alloc[i])) {
      std::ostringstream os;
      os << "allocation " << i << " is non-finite";
      violations.push_back(os.str());
      continue;
    }
    if (alloc[i] < req[i].minimum - tol || alloc[i] > req[i].maximum + tol) {
      std::ostringstream os;
      os << "allocation " << i << " = " << alloc[i] << " outside its bounds ["
         << req[i].minimum << ", " << req[i].maximum << "]";
      violations.push_back(os.str());
    }
    const double start = std::clamp(current[i], req[i].minimum, req[i].maximum);
    const double moved = alloc[i] - start;
    // The delta may only move entries in its own direction.
    if ((adding && moved < -tol) || (!adding && moved > tol)) {
      std::ostringstream os;
      os << "allocation " << i << " moved by " << moved << " against a delta of " << delta;
      violations.push_back(os.str());
    }
    absorbed += moved;
    const double target_bound = adding ? req[i].maximum : req[i].minimum;
    if (HasShares(req[i]) && std::abs(alloc[i] - target_bound) > tol) {
      all_saturated = false;
    }
  }
  // Termination: either the whole delta was absorbed or every entry is
  // pinned at the bound the delta pushes toward (min-funding exhausted).
  const double sum_tol =
      1e-6 * std::max(1.0, std::abs(delta)) * static_cast<double>(std::max<size_t>(req.size(), 1));
  if (std::abs(absorbed - delta) > sum_tol && !all_saturated) {
    std::ostringstream os;
    os << "delta " << delta << " only absorbed " << absorbed
       << " with unsaturated entries remaining";
    violations.push_back(os.str());
  }
  return violations;
}

}  // namespace papd
