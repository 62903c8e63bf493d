// Unit tests for the MSR front end.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/msr/msr.h"
#include "src/platform/platform_spec.h"
#include "src/platform/pstate.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

TEST(MsrSkylake, PerfCtlRoundTrip) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  msr.WritePerfTargetMhz(3, Mhz{1500});
  EXPECT_DOUBLE_EQ(pkg.core(3).requested_mhz().value(), 1500.0);
  // Ratio field encodes hundreds of MHz.
  EXPECT_EQ(msr.Read(kMsrIa32PerfCtl, 3), (1500ull / 100) << 8);
  EXPECT_DOUBLE_EQ(msr.ReadPerfTargetMhz(3).value(), 1500.0);
}

TEST(MsrSkylake, PerfCtlQuantizedByHardwareGrid) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  // The 100 MHz ratio encoding cannot express 1550; the helper rounds to a
  // ratio first.
  msr.WritePerfTargetMhz(0, Mhz{1550});
  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 1600.0);
}

TEST(MsrSkylake, RaplLimitRegister) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  msr.WriteRaplLimitW(Watts{50.0});
  EXPECT_TRUE(pkg.rapl().enabled());
  EXPECT_DOUBLE_EQ(pkg.rapl().limit_w().value(), 50.0);
  // Enable bit and 1/8 W units readable back.
  const uint64_t v = msr.Read(kMsrPkgPowerLimit, 0);
  EXPECT_TRUE(v & (1ull << 15));
  EXPECT_EQ(v & 0x7FFF, 50ull * 8);
  msr.DisableRaplLimit();
  EXPECT_FALSE(pkg.rapl().enabled());
}

TEST(MsrSkylake, EnergyCounterAdvancesInRaplUnits) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("gcc"), 1);
  pkg.AttachWork(0, &proc);
  const uint64_t before = msr.Read(kMsrPkgEnergyStatus, 0);
  Simulator sim(&pkg);
  sim.Run(Seconds{1.0});
  const uint64_t after = msr.Read(kMsrPkgEnergyStatus, 0);
  const double joules = static_cast<double>(after - before) * kRaplEnergyUnitJoules;
  EXPECT_NEAR(joules, pkg.package_energy_j().value(), 0.01);
}

TEST(MsrSkylake, UnsupportedRegistersFault) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  EXPECT_DEATH(msr.Read(kMsrAmdCoreEnergy, 0), "GP");
  EXPECT_DEATH(msr.Read(0xDEAD, 0), "GP");
  EXPECT_DEATH(msr.WritePstateDefMhz(0, Mhz{2000}), "GP");
}

TEST(MsrRyzen, PerCoreEnergyAvailable) {
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  Process proc(GetProfile("gcc"), 1);
  pkg.AttachWork(0, &proc);
  Simulator sim(&pkg);
  sim.Run(Seconds{0.5});
  const uint64_t e0 = msr.Read(kMsrAmdCoreEnergy, 0);
  const uint64_t e7 = msr.Read(kMsrAmdCoreEnergy, 7);
  EXPECT_GT(e0, e7);  // The busy core burned more.
}

TEST(MsrRyzen, DirectPerfCtlFaults) {
  // The Ryzen path must go through P-state definitions, never per-core
  // ratios — this is what enforces the 3-simultaneous-P-state restriction.
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  EXPECT_DEATH(msr.WritePerfTargetMhz(0, Mhz{2000}), "GP");
}

TEST(MsrRyzenDeathTest, SelectorBeyondDefinedSlotsFaults) {
  // The select field is three bits wide but only three slots are defined:
  // selectors 3..7 raise #GP rather than reading past the definitions.
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  EXPECT_DEATH(msr.SelectPstate(0, 3), "GP");
  EXPECT_DEATH(msr.SelectPstate(0, 7), "GP");
}

// Per-core registers exist only for the package's cpus: a cpu number
// outside it raises #GP instead of indexing past the per-core state.
// Package-scope registers ignore the cpu number.
TEST(MsrDeathTest, CoreIndexOutOfRangeFaults) {
  Package skylake(SkylakeXeon4114());
  MsrFile msr(&skylake);
  EXPECT_DEATH(msr.WritePerfTargetMhz(12, Mhz{2000}), "GP");
  EXPECT_DEATH(msr.Read(kMsrIa32Aperf, -1), "GP");
  EXPECT_EQ(msr.Read(kMsrPkgEnergyStatus, 99), msr.Read(kMsrPkgEnergyStatus, 0));

  Package ryzen(Ryzen1700X());
  MsrFile amd(&ryzen);
  EXPECT_DEATH(amd.SelectPstate(8, 0), "GP");
}

TEST(MsrRyzen, PstateDefAndSelect) {
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  msr.WritePstateDefMhz(0, Mhz{3400});
  msr.WritePstateDefMhz(1, Mhz{2200});
  msr.WritePstateDefMhz(2, Mhz{900});
  EXPECT_DOUBLE_EQ(msr.ReadPstateDefMhz(0).value(), 3400.0);
  EXPECT_DOUBLE_EQ(msr.ReadPstateDefMhz(2).value(), 900.0);
  msr.SelectPstate(0, 0);
  msr.SelectPstate(1, 1);
  msr.SelectPstate(2, 2);
  EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(), 3400.0);
  EXPECT_DOUBLE_EQ(pkg.core(1).requested_mhz().value(), 2200.0);
  EXPECT_DOUBLE_EQ(pkg.core(2).requested_mhz().value(), 900.0);
  EXPECT_EQ(msr.Read(kMsrAmdPstateCtl, 2), 2u);
}

TEST(MsrRyzen, RedefiningSlotRetargetsSelectedCores) {
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  msr.WritePstateDefMhz(1, Mhz{2200});
  msr.SelectPstate(4, 1);
  msr.SelectPstate(5, 1);
  EXPECT_DOUBLE_EQ(pkg.core(4).requested_mhz().value(), 2200.0);
  msr.WritePstateDefMhz(1, Mhz{1500});
  EXPECT_DOUBLE_EQ(pkg.core(4).requested_mhz().value(), 1500.0);
  EXPECT_DOUBLE_EQ(pkg.core(5).requested_mhz().value(), 1500.0);
}

TEST(MsrRyzen, ThreeSimultaneousPstatesInvariant) {
  // Whatever software does through the definition/select interface, at most
  // three distinct frequencies exist across the cores.
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  msr.WritePstateDefMhz(0, Mhz{3400});
  msr.WritePstateDefMhz(1, Mhz{2000});
  msr.WritePstateDefMhz(2, Mhz{800});
  for (int c = 0; c < 8; c++) {
    msr.SelectPstate(c, c % 3);
  }
  EXPECT_LE(pkg.DistinctRequestedFrequencies(), 3);
}

TEST(MsrRyzen, PstateDefQuantizedTo25Mhz) {
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  msr.WritePstateDefMhz(0, Mhz{2013});  // Rounds to 2025 in 25 MHz encoding.
  EXPECT_DOUBLE_EQ(msr.ReadPstateDefMhz(0).value(), 2025.0);
}

TEST(MsrRyzen, RaplLimitRegisterFaults) {
  Package pkg(Ryzen1700X());
  MsrFile msr(&pkg);
  EXPECT_DEATH(msr.WriteRaplLimitW(Watts{50.0}), "GP");
  EXPECT_DEATH(msr.Read(kMsrPkgPowerLimit, 0), "GP");
}

TEST(Msr, CoreOnlineControl) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  EXPECT_TRUE(msr.CoreOnline(5));
  msr.SetCoreOnline(5, false);
  EXPECT_FALSE(msr.CoreOnline(5));
  EXPECT_FALSE(pkg.core(5).online());
  msr.SetCoreOnline(5, true);
  EXPECT_TRUE(msr.CoreOnline(5));
}

TEST(Msr, NowSecondsTracksPackageTime) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Simulator sim(&pkg);
  sim.Run(Seconds{0.25});
  EXPECT_NEAR(msr.NowSeconds().value(), 0.25, 1e-9);
}

// --- P-state grid round trip (ROADMAP item 1) ---------------------------------

struct GridPreset {
  std::string name;
  PlatformSpec (*spec)();
};

// Keeps the ctest names free of the raw parameter bytes (a pointer).
void PrintTo(const GridPreset& p, std::ostream* os) { *os << p.name; }

class GridRoundTrip : public ::testing::TestWithParam<GridPreset> {};

// Every point of the platform's P-state grid, written the way the daemon
// programs it (a PERF_CTL target, or a P-state definition where the platform
// limits simultaneous P-states), reads back unchanged through the decode
// the daemon verifies with.
TEST_P(GridRoundTrip, EveryGridPointReadsBack) {
  const GridPreset& preset = GetParam();
  if (preset.name == "epyc128") {
    GTEST_SKIP() << "ManyCoreEpyc128's 25 MHz grid does not fit the 100 MHz PERF_CTL "
                    "encoding (ROADMAP item 1)";
  }
  const PlatformSpec spec = preset.spec();
  Package pkg(spec);
  MsrFile msr(&pkg);
  const PStateTable grid = spec.PStates();
  for (size_t p = 0; p < grid.size(); p++) {
    const Mhz mhz = grid.FrequencyOf(p);
    if (spec.max_simultaneous_pstates > 0) {
      const int slot = static_cast<int>(p % 3);
      msr.WritePstateDefMhz(slot, mhz);
      EXPECT_EQ(msr.ReadPstateDefMhz(slot), mhz) << "slot " << slot;
    } else {
      msr.WritePerfTargetMhz(0, mhz);
      EXPECT_EQ(msr.ReadPerfTargetMhz(0), mhz);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, GridRoundTrip,
                         ::testing::Values(GridPreset{"skylake", SkylakeXeon4114},
                                           GridPreset{"ryzen", Ryzen1700X},
                                           GridPreset{"xeon64", ManyCoreXeon64},
                                           GridPreset{"epyc128", ManyCoreEpyc128}),
                         [](const ::testing::TestParamInfo<GridPreset>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace papd
