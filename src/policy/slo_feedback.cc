#include "src/policy/slo_feedback.h"

#include <algorithm>

#include "src/common/check.h"

namespace papd {
namespace {

// Multiplicative step per control period; bounds how fast shares move.
constexpr double kStep = 0.25;
// Release rate once a subtree is back under the SLO (see the header note on
// why the release must be slower than the attack).
constexpr double kDecay = 0.0625;
// Hysteresis thresholds on the subtree violating-leaf fraction.
constexpr double kEnterFraction = 0.5;
constexpr double kExitFraction = 0.25;

}  // namespace

SloFeedbackArbiter::SloFeedbackArbiter(SloFeedbackOptions options) : options_(options) {
  PAPD_CHECK_GE(options_.max_bias, 1.0);
}

void SloFeedbackArbiter::Resize(size_t nodes) { bias_.assign(nodes, 1.0); }

int SloFeedbackArbiter::Update(const std::vector<double>& violation_fraction) {
  PAPD_CHECK_EQ(violation_fraction.size(), bias_.size());
  const double up = 1.0 + kStep;
  const double down = 1.0 + kDecay;
  int moved = 0;
  for (size_t i = 0; i < bias_.size(); i++) {
    const double frac = violation_fraction[i];
    const double before = bias_[i];
    if (frac >= kEnterFraction) {
      bias_[i] = std::min(before * up, options_.max_bias);
    } else if (frac <= kExitFraction && before > 1.0) {
      // Release toward neutral; land exactly on 1.0 so a recovered shard's
      // shares return to their configured value.
      bias_[i] = std::max(before / down, 1.0);
    }
    // Inside (kExitFraction, kEnterFraction): hold — the hysteresis band.
    if (bias_[i] != before) {
      moved++;
    }
  }
  return moved;
}

}  // namespace papd
