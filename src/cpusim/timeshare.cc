#include "src/cpusim/timeshare.h"

#include <algorithm>

#include "src/common/check.h"

namespace papd {

TimeSharedCore::TimeSharedCore(std::vector<Member> members) : members_(std::move(members)) {
  PAPD_CHECK(!members_.empty());
  double total = 0.0;
  for (const Member& m : members_) {
    PAPD_CHECK(m.work != nullptr);
    PAPD_CHECK_GE(m.residency, 0.0);
    total += m.residency;
  }
  if (total > 1.0) {
    for (Member& m : members_) {
      m.residency /= total;
    }
  }
  member_instructions_.assign(members_.size(), 0.0);
}

void TimeSharedCore::RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices,
                              int n) {
  for (int k = 0; k < n; ++k) {
    out_slices[k] = RunOne(dt, freqs_mhz[k]);
  }
}

WorkSlice TimeSharedCore::RunOne(Seconds dt, Mhz freq_mhz) {
  // Run each member for its residency slice of dt.  The scheduler quantum
  // (~ms) is far below the 1 Hz monitoring period, so representing the
  // interleaving as exact fractional residency is accurate for both average
  // power and throughput.
  WorkSlice combined;
  double weighted_activity = 0.0;
  double weighted_avx = 0.0;
  for (size_t i = 0; i < members_.size(); i++) {
    const Member& m = members_[i];
    if (m.residency <= 0.0) {
      continue;
    }
    WorkSlice s;
    m.work->RunBatch(dt * m.residency, &freq_mhz, &s, 1);
    combined.instructions += s.instructions;
    member_instructions_[i] += s.instructions;
    const double busy = s.busy_fraction * m.residency;
    combined.busy_fraction += busy;
    weighted_activity += s.activity * busy;
    weighted_avx += s.avx_fraction * busy;
  }
  if (combined.busy_fraction > 0.0) {
    combined.activity = weighted_activity / combined.busy_fraction;
    combined.avx_fraction = weighted_avx / combined.busy_fraction;
  }
  return combined;
}

void TimeSharedCore::SetResidency(size_t member, double residency) {
  PAPD_CHECK_LT(member, members_.size()) << " TimeSharedCore member out of range";
  PAPD_CHECK_GE(residency, 0.0) << " for TimeSharedCore member " << member;
  members_[member].residency = residency;
}

bool TimeSharedCore::UsesAvx() const {
  for (const Member& m : members_) {
    if (m.work->UsesAvx() && m.residency > 0.0) {
      return true;
    }
  }
  return false;
}

}  // namespace papd
