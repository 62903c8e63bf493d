// Unit tests for the Package simulator: effective frequencies, turbo, AVX
// caps, RAPL interaction, counters and power accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

std::unique_ptr<Process> MakeProcess(const std::string& profile, uint64_t seed = 1) {
  return std::make_unique<Process>(GetProfile(profile), seed);
}

TEST(Package, InitialState) {
  Package pkg(SkylakeXeon4114());
  EXPECT_EQ(pkg.num_cores(), 10);
  EXPECT_DOUBLE_EQ(pkg.now().value(), 0.0);
  for (int i = 0; i < pkg.num_cores(); i++) {
    EXPECT_TRUE(pkg.core(i).online());
    EXPECT_DOUBLE_EQ(pkg.core(i).requested_mhz().value(), 2200.0);
  }
}

TEST(Package, SetRequestedMhzQuantizesToGrid) {
  Package pkg(SkylakeXeon4114());
  pkg.SetRequestedMhz(0, Mhz{1234.0});
  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 1200.0);
  Package ryzen(Ryzen1700X());
  ryzen.SetRequestedMhz(0, Mhz{1234.0});
  EXPECT_DOUBLE_EQ(ryzen.core(0).requested_mhz().value(), 1225.0);
}

TEST(Package, SingleCoreReachesMaxTurbo) {
  Package pkg(SkylakeXeon4114());
  auto proc = MakeProcess("leela");
  pkg.AttachWork(0, proc.get());
  pkg.SetRequestedMhz(0, Mhz{3000});
  pkg.Tick(Seconds{0.001});
  EXPECT_DOUBLE_EQ(pkg.core(0).effective_mhz().value(), 3000.0);
}

TEST(Package, AllCoresClampedToAllCoreTurbo) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(MakeProcess("leela", 1 + i));
    pkg.AttachWork(i, procs.back().get());
    pkg.SetRequestedMhz(i, Mhz{3000});
  }
  pkg.Tick(Seconds{0.001});
  for (int i = 0; i < 10; i++) {
    EXPECT_DOUBLE_EQ(pkg.core(i).effective_mhz().value(), spec.TurboLimitMhz(10).value());
  }
}

TEST(Package, OffliningCoresFreesTurboHeadroom) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(MakeProcess("leela", 1 + i));
    pkg.AttachWork(i, procs.back().get());
    pkg.SetRequestedMhz(i, Mhz{3000});
  }
  for (int i = 2; i < 10; i++) {
    pkg.SetOnline(i, false);
  }
  pkg.Tick(Seconds{0.001});
  // Two active cores: full turbo.
  EXPECT_DOUBLE_EQ(pkg.core(0).effective_mhz().value(), 3000.0);
}

TEST(Package, AvxWorkloadIsFrequencyCapped) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  auto avx = MakeProcess("cam4");
  auto plain = MakeProcess("gcc");
  pkg.AttachWork(0, avx.get());
  pkg.AttachWork(1, plain.get());
  pkg.SetRequestedMhz(0, Mhz{3000});
  pkg.SetRequestedMhz(1, Mhz{3000});
  pkg.Tick(Seconds{0.001});
  EXPECT_DOUBLE_EQ(pkg.core(0).effective_mhz().value(), spec.avx_max_mhz_light.value());
  EXPECT_DOUBLE_EQ(pkg.core(1).effective_mhz().value(), 3000.0);
}

TEST(Package, ManyAvxCoresGetHeavierCap) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 5; i++) {
    procs.push_back(MakeProcess("cam4", 1 + i));
    pkg.AttachWork(i, procs.back().get());
    pkg.SetRequestedMhz(i, Mhz{3000});
  }
  pkg.Tick(Seconds{0.001});
  EXPECT_DOUBLE_EQ(pkg.core(0).effective_mhz().value(), spec.avx_max_mhz_heavy.value());
}

TEST(Package, OfflineCoreDrawsIdlePowerAndDoesNotRun) {
  Package pkg(SkylakeXeon4114());
  auto proc = MakeProcess("gcc");
  pkg.AttachWork(0, proc.get());
  pkg.SetOnline(0, false);
  pkg.Tick(Seconds{0.001});
  EXPECT_DOUBLE_EQ(pkg.core(0).effective_mhz().value(), 0.0);
  EXPECT_DOUBLE_EQ(pkg.core(0).last_slice().instructions, 0.0);
  EXPECT_LT(pkg.core(0).power_w(), Watts{0.1});
  EXPECT_DOUBLE_EQ(proc->instructions_retired(), 0.0);
}

TEST(Package, PowerAccountingConsistent) {
  Package pkg(SkylakeXeon4114());
  auto proc = MakeProcess("gcc");
  pkg.AttachWork(0, proc.get());
  Simulator sim(&pkg);
  sim.Run(Seconds{1.0});
  // Package energy equals the integral of package power: re-derive average
  // power from energy and compare with the last instantaneous value (the
  // workload is steady).
  const Watts avg{pkg.package_energy_j() / pkg.now()};
  EXPECT_NEAR(avg.value(), pkg.last_package_power_w().value(), 0.5);
  // Package power strictly exceeds the sum of core powers by the uncore.
  Watts core_sum{0.0};
  for (int i = 0; i < pkg.num_cores(); i++) {
    core_sum += pkg.core(i).power_w();
  }
  EXPECT_NEAR((pkg.last_package_power_w() - core_sum).value(), pkg.last_uncore_power_w().value(), 1e-9);
}

TEST(Package, CountersMonotone) {
  Package pkg(SkylakeXeon4114());
  auto proc = MakeProcess("gcc");
  pkg.AttachWork(0, proc.get());
  double prev_aperf = 0.0;
  Joules prev_energy{0.0};
  for (int i = 0; i < 100; i++) {
    pkg.Tick(Seconds{0.001});
    EXPECT_GE(pkg.core(0).aperf_cycles(), prev_aperf);
    EXPECT_GT(pkg.core(0).energy_j(), prev_energy);
    prev_aperf = pkg.core(0).aperf_cycles();
    prev_energy = pkg.core(0).energy_j();
  }
}

TEST(Package, AperfMperfRatioRecoversFrequency) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  auto proc = MakeProcess("gcc");
  pkg.AttachWork(0, proc.get());
  pkg.SetRequestedMhz(0, Mhz{1500});
  Simulator sim(&pkg);
  sim.Run(Seconds{0.5});
  const Core& c = pkg.core(0);
  EXPECT_NEAR((c.aperf_cycles() / c.mperf_cycles() * spec.tsc_mhz).value(), 1500.0, 1.0);
}

TEST(Package, RaplThrottlesAllCoresUniformly) {
  // Figure 1 mechanism: under global-style uniform requests, RAPL clamps
  // everyone to the same ceiling.
  Package pkg(SkylakeXeon4114());
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(MakeProcess("gcc", 1 + i));
    pkg.AttachWork(i, procs.back().get());
    pkg.SetRequestedMhz(i, Mhz{3000});
  }
  pkg.SetRaplLimit(Watts{40.0});
  Simulator sim(&pkg);
  sim.Run(Seconds{2.0});
  EXPECT_NEAR(pkg.last_package_power_w().value(), 40.0, 1.5);
  const Mhz f0{pkg.core(0).effective_mhz()};
  EXPECT_LT(f0, Mhz{2000.0});
  for (int i = 1; i < 10; i++) {
    EXPECT_DOUBLE_EQ(pkg.core(i).effective_mhz().value(), f0.value());
  }
}

TEST(Package, RaplThrottlesFastestCoresFirst) {
  // Figure 4 mechanism: cores already throttled below the ceiling are
  // untouched; only unconstrained cores slow down.
  Package pkg(SkylakeXeon4114());
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(MakeProcess("gcc", 1 + i));
    pkg.AttachWork(i, procs.back().get());
    pkg.SetRequestedMhz(i, i < 5 ? Mhz{3000} : Mhz{800});
  }
  pkg.SetRaplLimit(Watts{50.0});
  Simulator sim(&pkg);
  sim.Run(Seconds{2.0});
  for (int i = 5; i < 10; i++) {
    EXPECT_DOUBLE_EQ(pkg.core(i).effective_mhz().value(), 800.0);
  }
  EXPECT_LT(pkg.core(0).effective_mhz(), Mhz{3000.0});
  EXPECT_GT(pkg.core(0).effective_mhz(), Mhz{800.0});
}

TEST(Package, RaplRejectedOnRyzen) {
  Package pkg(Ryzen1700X());
  pkg.SetRaplLimit(Watts{50.0});  // Logged and ignored.
  EXPECT_FALSE(pkg.rapl().enabled());
}

// Six gcc processes on cores 0..5, cores 6..9 idle, under a given tick policy.
struct GccSix {
  explicit GccSix(TickPolicy policy) : pkg(SkylakeXeon4114()) {
    for (int i = 0; i < 6; i++) {
      procs.push_back(MakeProcess("gcc", 100 + i));
      pkg.AttachWork(i, procs.back().get());
    }
    pkg.SetTickPolicy(policy);
  }

  Package pkg;
  std::vector<std::unique_ptr<Process>> procs;
};

// While RAPL is armed CanFastTick rejects every plan, so none is built and
// the run is the every-tick reference bit for bit.  Clearing the limit is a
// control-plane event; holding resumes after it.
TEST(MultiRateRapl, ArmedLimitBuildsNoPlanAndMatchesEveryTick) {
  const Seconds tick{0.001};
  GccSix multi(TickPolicy::kMultiRate);
  GccSix every(TickPolicy::kEveryTick);
  multi.pkg.SetRaplLimit(Watts{45.0});
  every.pkg.SetRaplLimit(Watts{45.0});
  for (int t = 0; t < 2000; t++) {
    multi.pkg.Tick(tick);
    every.pkg.Tick(tick);
  }
  multi.pkg.FlushSteadyWork();
  EXPECT_EQ(multi.pkg.tick_stats().plan_rebuilds, 0u);
  EXPECT_EQ(multi.pkg.tick_stats().fast_ticks, 0u);
  EXPECT_EQ(multi.pkg.package_energy_j(), every.pkg.package_energy_j());
  for (int i = 0; i < multi.pkg.num_cores(); i++) {
    EXPECT_EQ(multi.pkg.core(i).instructions_retired(), every.pkg.core(i).instructions_retired())
        << "core " << i;
    EXPECT_EQ(multi.pkg.core(i).aperf_cycles(), every.pkg.core(i).aperf_cycles()) << "core " << i;
    EXPECT_EQ(multi.pkg.core(i).energy_j(), every.pkg.core(i).energy_j()) << "core " << i;
  }
  for (size_t i = 0; i < multi.procs.size(); i++) {
    EXPECT_EQ(multi.procs[i]->instructions_retired(), every.procs[i]->instructions_retired())
        << "process " << i;
  }

  multi.pkg.ClearRaplLimit();
  for (int t = 0; t < 200; t++) {
    multi.pkg.Tick(tick);
  }
  EXPECT_GT(multi.pkg.tick_stats().plan_rebuilds, 0u);
  EXPECT_GT(multi.pkg.tick_stats().fast_ticks, 0u);
}

TEST(Package, DistinctRequestedFrequenciesCountsOnlineCores) {
  Package pkg(Ryzen1700X());
  for (int i = 0; i < 8; i++) {
    pkg.SetRequestedMhz(i, Mhz{800.0 + 100.0 * i});
  }
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 8);
  for (int i = 4; i < 8; i++) {
    pkg.SetOnline(i, false);
  }
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 4);
}

TEST(Package, HigherDemandWorkloadDrawsMorePower) {
  Package lo(SkylakeXeon4114());
  Package hi(SkylakeXeon4114());
  auto leela = MakeProcess("leela");
  auto cactus = MakeProcess("cactusBSSN");
  lo.AttachWork(0, leela.get());
  hi.AttachWork(0, cactus.get());
  lo.SetRequestedMhz(0, Mhz{2200});
  hi.SetRequestedMhz(0, Mhz{2200});
  lo.Tick(Seconds{0.001});
  hi.Tick(Seconds{0.001});
  EXPECT_GT(hi.core(0).power_w(), lo.core(0).power_w());
}

TEST(Package, MultiWorkMembersCountForTurboCensus) {
  // Nine websearch cores plus one single-core app: all ten are active, so
  // the all-core turbo limit applies.
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  // A tiny stand-in multi-core work occupying cores 0..8.
  class Fixed : public MultiCoreWork {
   public:
    Fixed() : cores_{0, 1, 2, 3, 4, 5, 6, 7, 8} {}
    const std::vector<int>& Cores() const override { return cores_; }
    void RunBatch(Seconds, const Mhz*, WorkSlice* out, size_t n) override {
      for (size_t j = 0; j < n; j++) {
        out[j] = WorkSlice{.instructions = 1, .busy_fraction = 1.0, .activity = 1.0};
      }
    }
    bool UsesAvx() const override { return false; }
    std::string Name() const override { return "fixed"; }

   private:
    std::vector<int> cores_;
  } multi;
  pkg.AttachMultiWork(&multi);
  auto proc = MakeProcess("gcc");
  pkg.AttachWork(9, proc.get());
  for (int i = 0; i < 10; i++) {
    pkg.SetRequestedMhz(i, Mhz{3000});
  }
  pkg.Tick(Seconds{0.001});
  EXPECT_DOUBLE_EQ(pkg.core(9).effective_mhz().value(), spec.TurboLimitMhz(10).value());
}

// A multi-core work on an arbitrary core list, for the membership checks.
class ListedWork : public MultiCoreWork {
 public:
  explicit ListedWork(std::vector<int> cores) : cores_(std::move(cores)) {}
  const std::vector<int>& Cores() const override { return cores_; }
  void RunBatch(Seconds, const Mhz*, WorkSlice* out, size_t n) override {
    for (size_t j = 0; j < n; j++) {
      out[j] = WorkSlice{.instructions = 1, .busy_fraction = 1.0, .activity = 1.0};
    }
  }
  bool UsesAvx() const override { return false; }
  std::string Name() const override { return "listed"; }

 private:
  std::vector<int> cores_;
};

// Work membership is checked in every build (not assert): a bad member
// would write past the per-core arrays or run a lane twice per tick.
TEST(PackageDeathTest, MultiWorkMemberOutOfRange) {
  Package pkg(SkylakeXeon4114());
  ListedWork work({8, 9, 10});
  EXPECT_DEATH(pkg.AttachMultiWork(&work), "core 10 out of range");
}

TEST(PackageDeathTest, MultiWorkMembersDescending) {
  Package pkg(SkylakeXeon4114());
  ListedWork work({3, 2});
  EXPECT_DEATH(pkg.AttachMultiWork(&work), "not one ascending run");
}

TEST(PackageDeathTest, MultiWorkMembersWithGap) {
  Package pkg(SkylakeXeon4114());
  ListedWork work({0, 1, 3});
  EXPECT_DEATH(pkg.AttachMultiWork(&work), "not one ascending run");
}

TEST(PackageDeathTest, MultiWorkMemberCarriesSingleCoreWork) {
  Package pkg(SkylakeXeon4114());
  auto proc = MakeProcess("gcc");
  pkg.AttachWork(2, proc.get());
  ListedWork work({0, 1, 2});
  EXPECT_DEATH(pkg.AttachMultiWork(&work), "core 2 already has a work attached");
}

TEST(PackageDeathTest, MultiWorkMemberInAnotherMultiWork) {
  Package pkg(SkylakeXeon4114());
  ListedWork first({0, 1, 2, 3});
  pkg.AttachMultiWork(&first);
  ListedWork second({3, 4});
  EXPECT_DEATH(pkg.AttachMultiWork(&second), "core 3 already has a work attached");
}

TEST(PackageDeathTest, SingleCoreWorkOutOfRange) {
  Package pkg(SkylakeXeon4114());
  auto proc = MakeProcess("gcc");
  EXPECT_DEATH(pkg.AttachWork(10, proc.get()), "core 10 out of range");
  EXPECT_DEATH(pkg.AttachWork(-1, proc.get()), "core -1 out of range");
}

// The per-core setters index the per-core arrays directly; an out-of-range
// core would write past them.
TEST(PackageDeathTest, SetterCoreOutOfRange) {
  Package pkg(SkylakeXeon4114());
  EXPECT_DEATH(pkg.SetRequestedMhz(10, Mhz{2000}), "SetRequestedMhz: core 10 out of range");
  EXPECT_DEATH(pkg.SetRequestedMhz(-1, Mhz{2000}), "SetRequestedMhz: core -1 out of range");
  EXPECT_DEATH(pkg.SetOnline(12, false), "SetOnline: core 12 out of range");
  EXPECT_DEATH(pkg.DetachWork(-3), "DetachWork: core -3 out of range");
}

TEST(PackageDeathTest, SingleCoreWorkOnMultiWorkMember) {
  Package pkg(SkylakeXeon4114());
  ListedWork multi({0, 1, 2});
  pkg.AttachMultiWork(&multi);
  auto proc = MakeProcess("gcc");
  EXPECT_DEATH(pkg.AttachWork(1, proc.get()), "core 1 already belongs to a multi-core work");
}

}  // namespace
}  // namespace papd
