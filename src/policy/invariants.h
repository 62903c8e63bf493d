// Invariant auditing for the power-delivery policy stack.
//
// The paper's correctness claims rest on properties the policies never
// check explicitly:
//
//   * budget conservation — when package power exceeds the limit, a
//     redistribution step must never grow the total allocation (paper
//     Section 5.2's control loop converges only because corrections point
//     toward the limit);
//   * share monotonicity — an application holding more shares never
//     receives a smaller allocation of the policy's native resource
//     (Section 4.2's definition of proportional delivery);
//   * min-funding revocation termination and non-negativity — every
//     allocation lands inside its [minimum, maximum] bounds and the split
//     sums to the (clamped) total (Waldspurger's algorithm, Section 5.2);
//   * grid alignment — translation only emits frequencies the platform can
//     program (100 MHz Skylake, 25 MHz Ryzen; Section 2.1);
//   * the Ryzen P-state constraint — never more than three distinct
//     simultaneous frequencies (Sections 2.1 and 5);
//   * the power ceiling — once converged, package power never sits above
//     the configured limit plus slack while the policy still has downward
//     actuation left (the safety property the fault-injection suite
//     stresses: no fault schedule may defeat the budget).
//
// The priority policy (Section 5.1) goes through the same entry points;
// its two-level structure takes the place of share monotonicity.
//
// PolicyAuditor verifies all of these on every initial-distribution,
// redistribution and translation step.  The daemon owns one behind
// DaemonConfig::audit and wraps every controlling policy, built-in or
// custom, in an AuditedPolicy; the monitoring-only kRaplOnly and kStatic
// are checked at translation only.  In fatal mode a violation aborts
// through PAPD_CHECK; in non-fatal mode violations are recorded and logged
// so tests can assert on them.

#ifndef SRC_POLICY_INVARIANTS_H_
#define SRC_POLICY_INVARIANTS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/msr/turbostat.h"
#include "src/policy/app_model.h"
#include "src/policy/min_funding.h"
#include "src/policy/priority_policy.h"
#include "src/policy/share_policy.h"

namespace papd {

struct AuditOptions {
  // Fatal: a violation aborts with a formatted CHECK failure.  Non-fatal:
  // violations are recorded (and logged as errors) for later inspection —
  // the mode negative tests use.  The tolerances, deadbands and power-
  // ceiling timing are constants in invariants.cc.
  bool fatal = true;
};

class PolicyAuditor {
 public:
  struct Violation {
    std::string stage;    // "initial" | "redistribute" | "translate".
    std::string message;
  };

  // `max_simultaneous_pstates` as in PlatformSpec: 0 = unlimited (Skylake),
  // 3 on Ryzen.
  PolicyAuditor(PolicyPlatform platform, int max_simultaneous_pstates,
                AuditOptions options = {});

  // --- Policy stages ---------------------------------------------------------
  // `policy` identifies the concrete policy (dynamic_cast) so allocations
  // can be audited in the policy's *native* resource domain: frequency
  // shares in MHz, performance shares in normalized IPS, power shares in
  // watts, the priority policy in the running apps' MHz (stopped apps count
  // as 0) with its own structure checks.  Unknown (custom) policies get the
  // generic target checks only.
  void CheckInitialDistribution(const ShareResource* policy,
                                const std::vector<ManagedApp>& apps, Watts limit_w,
                                const std::vector<Mhz>& targets);
  void CheckRedistribution(const ShareResource* policy, const std::vector<ManagedApp>& apps,
                           const TelemetrySample& sample, Watts limit_w,
                           const std::vector<Mhz>& targets);

  // --- Power ceiling ---------------------------------------------------------
  // Called by the daemon once per valid-sample control period for actively
  // controlling policies: package power must not sit above limit_w + 8 W
  // for 6 consecutive periods once 20 periods have elapsed since the limit
  // was (re)set.  Escape hatch: when every running target is already at the
  // platform floor the policy has no actuation left (the limit is simply
  // unreachable) and the period is not counted.  Invalid samples must not
  // be passed in (their substituted rates are not this period's truth).
  void CheckPowerCeiling(const TelemetrySample& sample, Watts limit_w,
                         const std::vector<Mhz>& targets);

  // --- Translation -----------------------------------------------------------
  // `programmed_mhz` holds the frequency actually written to hardware for
  // each running app this period.  Verifies grid alignment (relative to
  // the platform minimum) and the simultaneous-P-state constraint.
  void CheckTranslation(const std::vector<Mhz>& programmed_mhz);

  const std::vector<Violation>& violations() const { return violations_; }
  int violation_count() const { return static_cast<int>(violations_.size()); }
  void ClearViolations() { violations_.clear(); }

  const PolicyPlatform& platform() const { return platform_; }

 private:
  // Per-app allocation in the policy's native resource domain, extracted
  // via dynamic_cast; monotonicity and conservation are only meaningful
  // there (translation feedback makes the *frequency* outputs of the
  // performance/power policies legitimately non-monotone).
  struct NativeView {
    const char* domain = nullptr;  // nullptr = unknown policy.
    std::vector<double> values;
    double scale = 1.0;  // Magnitude used for relative epsilon.
  };
  NativeView NativeTargets(const ShareResource* policy, const std::vector<Mhz>& targets) const;

  void CheckTargetsWellFormed(const char* stage, const std::vector<ManagedApp>& apps,
                              const std::vector<Mhz>& targets, bool allow_stopped);
  void CheckShareMonotonicity(const char* stage, const std::vector<ManagedApp>& apps,
                              const NativeView& view);
  // Priority structure at start: HP apps at their ceiling, LP apps stopped
  // (starvation mode) or at the platform minimum.
  void CheckPriorityStart(const PriorityPolicy::Options& options,
                          const std::vector<ManagedApp>& apps, const std::vector<Mhz>& targets);
  // Priority structure per step: only LP apps stop, and only with
  // starvation on; no running HP app below a running LP app.
  void CheckPriorityOrder(const PriorityPolicy::Options& options,
                          const std::vector<ManagedApp>& apps, const std::vector<Mhz>& targets);
  void Fail(const char* stage, const std::string& message);

  PolicyPlatform platform_;
  int max_simultaneous_pstates_;
  AuditOptions options_;
  std::vector<Violation> violations_;

  // Last native-domain allocation, for the directional conservation check
  // (reset by every initial distribution).
  std::vector<double> prev_native_;
  double prev_native_scale_ = 1.0;

  // Power-ceiling state: the limit last seen (a change restarts grace),
  // grace periods left, and the current over-ceiling streak.
  Watts ceiling_limit_w_{-1.0};
  int ceiling_grace_left_ = 0;
  int ceiling_over_streak_ = 0;
};

// Decorator: audits a wrapped ShareResource on every call.  This is how
// the daemon attaches the auditor to every controlling policy — the share
// policies, the priority policy and custom policies alike; tests wrap
// deliberately broken policies in one to prove violations are caught.
// Borrows the auditor.
class AuditedPolicy : public ShareResource {
 public:
  AuditedPolicy(std::unique_ptr<ShareResource> inner, PolicyAuditor* auditor);

  std::string Name() const override;
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override;
  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps,
                                const TelemetrySample& sample, Watts limit_w) override;

  ShareResource* inner() { return inner_.get(); }

 private:
  std::unique_ptr<ShareResource> inner_;
  PolicyAuditor* auditor_;
};

// Post-condition audit of one proportional split (DistributeProportional):
// termination (the split is complete: allocations sum to the total clamped
// into [sum of minimums, sum of maximums]) and bounds (every allocation
// within its [minimum, maximum], hence non-negative for non-negative
// minimums).  Returns human-readable violation messages; empty = clean.
std::vector<std::string> AuditProportionalSplit(ResourceUnits total,
                                                const std::vector<ShareRequest>& req,
                                                const std::vector<ResourceUnits>& alloc);

// Same for a delta application (DistributeDelta): bounds hold, and the
// delta is either fully absorbed or the leftover is explained by every
// entry sitting saturated at the bound the delta pushes toward.
std::vector<std::string> AuditDeltaSplit(ResourceUnits delta,
                                         const std::vector<ResourceUnits>& current,
                                         const std::vector<ShareRequest>& req,
                                         const std::vector<ResourceUnits>& alloc);

}  // namespace papd

#endif  // SRC_POLICY_INVARIANTS_H_
