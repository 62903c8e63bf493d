// SLO-feedback share arbiter: closes the loop the paper left open.
//
// Per-Application Power Delivery divides a socket's power by static shares;
// the BudgetTree (PR 8) runs the same min-funding arbiter at every cluster
// level, still with static shares.  Neither reacts to what the watts buy.
// For a latency-sensitive serving fleet the thing that matters is tail
// latency against an SLO, and FastCap (arxiv 1603.01313) makes the case
// that a cap should be divided by per-application performance need, not
// configuration alone.
//
// SloFeedbackArbiter maintains one multiplicative *bias* per budget-tree
// node.  Each control period the fleet reports, per node, the fraction of
// subtree leaves whose windowed p90 latency violated the SLO; the arbiter
// nudges the node's bias by a bounded multiplicative step:
//
//   - fraction >= 0.5  : bias *= 1.25             (boost, up to max_bias)
//   - fraction <= 0.25 : bias /= 1.0625, to >= 1  (release toward neutral)
//   - in between       : bias holds (hysteresis dead band)
//
// Biases start at 1.0 and never go below it: the arbiter only ever boosts a
// violating subtree, it never takes share from an idle one.  The step, the
// release rate and the band edges are constants in slo_feedback.cc.
//
// The attack/release asymmetry (release < step) matters at the leaves, where
// the violating fraction is binary and the dead band can never hold: a
// shard that recovers only because its bias boosted it would, under
// symmetric decay, shed the boost as fast as it gained it and flap between
// violating and recovered.  A slow release keeps the watts parked long
// enough to drain the queue backlog the violation built up.
//
// The effective min-funding shares at every tree level are
// base_shares * bias.  Because shares only set *proportions* — each node's
// [floor, ceiling] bounds are untouched — the BudgetTree's structural cap
// invariant (sum of child grants <= parent grant) holds under any bias
// vector; AuditProportionalSplit re-checks every biased split when
// auditing is on.
//
// Bounded step + hysteresis give the loop its stability properties: a
// persistent violator converges to max_bias in
// ceil(log(max_bias) / log(1.25)) periods and stays; a recovered shard decays back to exactly 1.0 and
// stays; a shard oscillating inside the dead band does not flap.

#ifndef SRC_POLICY_SLO_FEEDBACK_H_
#define SRC_POLICY_SLO_FEEDBACK_H_

#include <cstddef>
#include <vector>

#include "src/common/units.h"

namespace papd {

struct SloFeedbackOptions {
  // The p90 response-time SLO each shard is held to.
  Seconds slo_p90{0.050};
  // Upper clamp of every bias; >= 1.
  double max_bias = 4.0;
};

class SloFeedbackArbiter {
 public:
  explicit SloFeedbackArbiter(SloFeedbackOptions options = {});

  // One tracked bias per budget-tree node, all starting at 1.0.
  void Resize(size_t nodes);

  // One control-period update.  `violation_fraction[i]` is the fraction of
  // node i's subtree leaves whose windowed p90 exceeded the SLO.  Returns
  // the number of nodes whose bias moved this period.
  int Update(const std::vector<double>& violation_fraction);

  double bias(size_t node) const { return bias_[node]; }
  const std::vector<double>& biases() const { return bias_; }
  size_t size() const { return bias_.size(); }
  const SloFeedbackOptions& options() const { return options_; }

 private:
  SloFeedbackOptions options_;
  std::vector<double> bias_;
};

}  // namespace papd

#endif  // SRC_POLICY_SLO_FEEDBACK_H_
