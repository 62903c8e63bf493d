// Unit tests for the single-core time-sharing model (paper Section 4.3).

#include <gtest/gtest.h>

#include <memory>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/cpusim/timeshare.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

// Average power of one Ryzen core running the given time-share mix at f.
Watts SharedCorePower(const std::string& app_a, double res_a, const std::string& app_b,
                      double res_b, Mhz freq) {
  Package pkg(Ryzen1700X());
  Process a(GetProfile(app_a), 1);
  Process b(GetProfile(app_b), 2);
  std::vector<TimeSharedCore::Member> members;
  if (res_a > 0.0) {
    members.push_back({.work = &a, .residency = res_a});
  }
  if (res_b > 0.0) {
    members.push_back({.work = &b, .residency = res_b});
  }
  TimeSharedCore shared(std::move(members));
  pkg.AttachWork(0, &shared);
  pkg.SetRequestedMhz(0, freq);
  Simulator sim(&pkg);
  sim.Run(Seconds{2.0});
  return pkg.core(0).energy_j() / pkg.now();
}

TEST(TimeShare, PowerIsResidencyWeightedSum) {
  // Figure 6's central observation: core power under time sharing is the
  // time-weighted sum of the individual applications' power draws.
  const Watts hd_alone = SharedCorePower("cactusBSSN", 1.0, "gcc", 0.0, Mhz{3400});
  const Watts ld_alone = SharedCorePower("cactusBSSN", 0.0, "gcc", 1.0, Mhz{3400});
  const Watts mixed = SharedCorePower("cactusBSSN", 0.5, "gcc", 0.5, Mhz{3400});
  EXPECT_GT(hd_alone, ld_alone);
  EXPECT_NEAR(mixed.value(), (0.5 * hd_alone + 0.5 * ld_alone).value(), 0.35);
}

TEST(TimeShare, PowerGrowsWithHdShare) {
  Watts prev{0.0};
  for (double hd_share : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    const Watts p = SharedCorePower("cactusBSSN", hd_share, "gcc", 0.5, Mhz{3400});
    EXPECT_GT(p, prev) << hd_share;
    prev = p;
  }
}

TEST(TimeShare, ThroughputProportionalToResidency) {
  Process a(GetProfile("leela"), 1);
  Process b(GetProfile("leela"), 2);
  TimeSharedCore shared({{.work = &a, .residency = 0.6}, {.work = &b, .residency = 0.2}});
  for (int i = 0; i < 1000; i++) {
    shared.Run(Seconds{0.001}, Mhz{2000});
  }
  const double ratio = shared.member_instructions()[0] / shared.member_instructions()[1];
  EXPECT_NEAR(ratio, 3.0, 0.1);
}

TEST(TimeShare, ResidenciesAboveOneAreNormalized) {
  Process a(GetProfile("leela"), 1);
  Process b(GetProfile("leela"), 2);
  TimeSharedCore shared({{.work = &a, .residency = 1.5}, {.work = &b, .residency = 0.5}});
  const WorkSlice s = shared.Run(Seconds{0.001}, Mhz{2000});
  EXPECT_LE(s.busy_fraction, 1.0 + 1e-9);
  for (int i = 0; i < 999; i++) {
    shared.Run(Seconds{0.001}, Mhz{2000});
  }
  EXPECT_NEAR(shared.member_instructions()[0] / shared.member_instructions()[1], 3.0, 0.1);
}

TEST(TimeShare, IdleRemainderLowersBusyFraction) {
  Process a(GetProfile("leela"), 1);
  TimeSharedCore shared({{.work = &a, .residency = 0.3}});
  const WorkSlice s = shared.Run(Seconds{0.001}, Mhz{2000});
  EXPECT_NEAR(s.busy_fraction, 0.3, 1e-9);
}

TEST(TimeShare, ActivityIsBusyWeighted) {
  const double hd_activity = GetProfile("cactusBSSN").activity;
  const double ld_activity = GetProfile("leela").activity;
  Process hd(GetProfile("cactusBSSN"), 1);
  Process ld(GetProfile("leela"), 2);
  TimeSharedCore shared({{.work = &hd, .residency = 0.5}, {.work = &ld, .residency = 0.5}});
  const WorkSlice s = shared.Run(Seconds{0.001}, Mhz{2000});
  EXPECT_NEAR(s.activity, (hd_activity + ld_activity) / 2.0, 1e-6);
}

TEST(TimeShare, AvxPropagatesFromMembers) {
  Process avx(GetProfile("cam4"), 1);
  Process plain(GetProfile("gcc"), 2);
  TimeSharedCore with_avx({{.work = &avx, .residency = 0.5}, {.work = &plain, .residency = 0.5}});
  EXPECT_TRUE(with_avx.UsesAvx());
  TimeSharedCore zero_res_avx({{.work = &avx, .residency = 0.0}, {.work = &plain, .residency = 1.0}});
  EXPECT_FALSE(zero_res_avx.UsesAvx());
}

// The member index is checked in every build type: unchecked, a release
// build would write past the member array.
TEST(TimeShareDeathTest, SetResidencyOutOfRangeAborts) {
  Process a(GetProfile("leela"), 1);
  Process b(GetProfile("leela"), 2);
  TimeSharedCore shared({{.work = &a, .residency = 0.5}, {.work = &b, .residency = 0.5}});
  EXPECT_DEATH(shared.SetResidency(2, 0.25), "member out of range");
}

}  // namespace
}  // namespace papd
