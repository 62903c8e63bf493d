// Single-core time sharing (paper Section 4.3, Figure 6).
//
// When two applications share one core with CPU shares (cgroups/docker in
// the paper), the core's average power is the residency-weighted sum of the
// individual applications' power draws.  TimeSharedCore composes two (or
// more) CoreWorks with residency fractions and presents them to the
// simulator as a single core occupant, which reproduces that result and
// lets the Figure 6 bench sweep share ratios.

#ifndef SRC_CPUSIM_TIMESHARE_H_
#define SRC_CPUSIM_TIMESHARE_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/specsim/core_work.h"

namespace papd {

class TimeSharedCore : public CoreWork {
 public:
  struct Member {
    CoreWork* work;     // Non-owning.
    double residency;   // Fraction of core time (shares / total); >= 0.
  };

  // Residencies may sum to less than 1 (remainder is idle) but not more;
  // values are clamped if they do.
  explicit TimeSharedCore(std::vector<Member> members);

  void RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices, int n) override;
  bool UsesAvx() const override;
  std::string Name() const override { return "timeshare"; }

  // Instructions each member retired so far (same order as construction).
  const std::vector<double>& member_instructions() const { return member_instructions_; }

  // Adjusts a member's residency at runtime (the single-core sharing
  // policy's CPU-shares knob).  Values are used as-is; keep the sum <= 1.
  // `member` must index a member and `residency` be >= 0 (checked).
  void SetResidency(size_t member, double residency);
  double residency(size_t member) const { return members_[member].residency; }

 private:
  // One slice: each member runs for its residency fraction of dt.
  WorkSlice RunOne(Seconds dt, Mhz freq_mhz);

  std::vector<Member> members_;
  std::vector<double> member_instructions_;
};

}  // namespace papd

#endif  // SRC_CPUSIM_TIMESHARE_H_
