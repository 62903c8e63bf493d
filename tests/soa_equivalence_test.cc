// Golden-checksum regression suite for the SoA tick-engine refactor.
//
// The data-oriented (structure-of-arrays) rewrite of Package::Tick and the
// batch work API must be *bit-identical* to the original array-of-structs
// engine.  These tests replay three representative scenarios — a Skylake
// priority mix, a frequency-share split, and the websearch+cpuburn latency
// rig — and fold every per-tick observable (package power, per-core
// instructions, effective frequency, energy and temperature) into an
// FNV-1a checksum.  The expected constants below were recorded from the
// pre-refactor engine (commit bf2f0fe) by running this binary with
// PAPD_PRINT_GOLDEN=1; any arithmetic re-ordering in the tick path shows up
// as a checksum mismatch on the very first divergent tick.  A fourth
// scenario walks every input that invalidates an every-tick memo (PROCHOT,
// RAPL, online toggles, detach/attach, multi-rate and back); its constants
// were recorded from the engine before the memos existed.  A fifth pins the
// open-loop serving socket the fleet runs (idle, saturated and offline
// websearch lanes); its constants were recorded from the engine before the
// fused price and settle kernels, and re-recorded once when diurnal
// arrivals moved to peak-rate thinning (the arrival stream changed, not the
// engine).
//
// The suite also asserts the refactor's other contracts: steady-state
// Package::Tick performs zero heap allocations (single-core and multi-core
// work paths alike), and multi-rate ticking is at least 5x faster than the
// forced-scalar every-tick reference on a 128-core package.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/perf_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/cpusim/package.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/spinlock.h"
#include "src/specsim/websearch.h"
#include "src/specsim/workload.h"
#include "tests/alloc_counter.h"
#include "tests/perf_gate.h"

namespace papd {
namespace {

// FNV-1a over the raw bit patterns of doubles: any change in any bit of any
// observed quantity changes the final hash.
class TickHash {
 public:
  void Add(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; i++) {
      h_ ^= (bits >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

void HashPackageTick(const Package& pkg, TickHash* hash) {
  hash->Add(pkg.last_package_power_w().value());
  hash->Add(pkg.package_energy_j().value());
  for (int i = 0; i < pkg.num_cores(); i++) {
    const Core& c = pkg.core(i);
    hash->Add(c.last_slice().instructions);
    hash->Add(c.effective_mhz().value());
    hash->Add(c.energy_j().value());
    hash->Add(pkg.thermal().core_temp_c(i));
  }
}

bool PrintGolden() { return std::getenv("PAPD_PRINT_GOLDEN") != nullptr; }

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t EnergyBits(const Package& pkg) { return Bits(pkg.package_energy_j().value()); }

void CheckGolden(const char* label, uint64_t hash, uint64_t energy_bits,
                 uint64_t want_hash, uint64_t want_energy_bits) {
  if (PrintGolden()) {
    std::printf("GOLDEN %-12s hash=0x%016llXull energy_bits=0x%016llXull\n", label,
                static_cast<unsigned long long>(hash),
                static_cast<unsigned long long>(energy_bits));
    return;
  }
  EXPECT_EQ(hash, want_hash) << label << ": per-tick checksum diverged from the "
                             << "pre-refactor engine";
  EXPECT_EQ(energy_bits, want_energy_bits)
      << label << ": final package energy diverged from the pre-refactor engine";
}

// Golden constants recorded from the pre-refactor engine (see file comment).
constexpr uint64_t kPriorityHash = 0xDCFFE5DC8EE3979Dull;
constexpr uint64_t kPriorityEnergyBits = 0x40741CE4A3054FD4ull;
constexpr uint64_t kSharesHash = 0xD78F609678BD130Eull;
constexpr uint64_t kSharesEnergyBits = 0x4071819B4A23399Bull;
constexpr uint64_t kWebsearchHash = 0x8A71C852B46ACC44ull;
constexpr uint64_t kWebsearchEnergyBits = 0x40767EFEC99EB284ull;
constexpr uint64_t kInvalidationHash = 0xFFCFAF31E73A7E72ull;
constexpr uint64_t kInvalidationEnergyBits = 0x408AAA2C9156631Eull;
constexpr uint64_t kOpenLoopHash = 0xFD2FEA25B1566E21ull;
constexpr uint64_t kOpenLoopEnergyBits = 0x407DA65F29F188F9ull;

constexpr Seconds kTick{0.001};
constexpr int kDaemonEveryTicks = 1000;  // 1 s daemon period.
constexpr int kTotalTicks = 6000;        // 6 simulated seconds.

// --- Scenario drivers ---------------------------------------------------------
// Each driver builds the scenario with fixed seeds, advances tick by tick
// (stepping the daemon every simulated second, like the harness), and hashes
// the package state after every tick.

struct GoldenRun {
  uint64_t hash = 0;
  uint64_t energy_bits = 0;
  long steady_tick_allocs = 0;  // Allocations during the final 500 ticks.
};

GoldenRun RunPriorityGolden() {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);

  // The paper's 5H5L mix: five cactusBSSN (HP) and five leela (LP).
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> managed;
  for (int i = 0; i < 10; i++) {
    const bool hp = i < 5;
    const char* profile = hp ? "cactusBSSN" : "leela";
    procs.push_back(std::make_unique<Process>(GetProfile(profile), 42 + 1000 * i));
    pkg.AttachWork(i, procs.back().get());
    managed.push_back(ManagedApp{.name = profile,
                                 .cpu = i,
                                 .shares = 1.0,
                                 .high_priority = hp,
                                 .baseline_ips = Ips{2.0e9}});
  }

  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kPriority;
  dcfg.power_limit_w = Watts{50.0};
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  GoldenRun run;
  TickHash hash;
  for (int t = 1; t <= kTotalTicks; t++) {
    const long before = AllocationCount();
    pkg.Tick(kTick);
    if (t > kTotalTicks - 500) {
      run.steady_tick_allocs += AllocationCount() - before;
    }
    if (t % kDaemonEveryTicks == 0) {
      daemon.Step();
    }
    HashPackageTick(pkg, &hash);
  }
  run.hash = hash.value();
  run.energy_bits = EnergyBits(pkg);
  return run;
}

GoldenRun RunSharesGolden() {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);

  // Figure 9's share split: five leela at 20 shares, five cactusBSSN at 80.
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> managed;
  for (int i = 0; i < 10; i++) {
    const bool ld = i < 5;
    const char* profile = ld ? "leela" : "cactusBSSN";
    procs.push_back(std::make_unique<Process>(GetProfile(profile), 7 + 1000 * i));
    pkg.AttachWork(i, procs.back().get());
    managed.push_back(ManagedApp{.name = profile,
                                 .cpu = i,
                                 .shares = ld ? 20.0 : 80.0,
                                 .high_priority = false,
                                 .baseline_ips = Ips{2.0e9}});
  }

  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kFrequencyShares;
  dcfg.power_limit_w = Watts{45.0};
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  GoldenRun run;
  TickHash hash;
  for (int t = 1; t <= kTotalTicks; t++) {
    const long before = AllocationCount();
    pkg.Tick(kTick);
    if (t > kTotalTicks - 500) {
      run.steady_tick_allocs += AllocationCount() - before;
    }
    if (t % kDaemonEveryTicks == 0) {
      daemon.Step();
    }
    HashPackageTick(pkg, &hash);
  }
  run.hash = hash.value();
  run.energy_bits = EnergyBits(pkg);
  return run;
}

GoldenRun RunWebsearchGolden() {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);

  // Websearch on cores 0..8, cpuburn on core 9 (the Figure 5/12 rig).
  std::vector<int> ws_cores;
  for (int c = 0; c < 9; c++) {
    ws_cores.push_back(c);
  }
  WebSearch::Params params;
  WebSearch websearch(ws_cores, params, /*seed=*/42);
  pkg.AttachMultiWork(&websearch);
  Process burn(GetProfile("cpuburn"), /*seed=*/49);
  pkg.AttachWork(9, &burn);

  std::vector<ManagedApp> managed;
  for (int c : ws_cores) {
    managed.push_back(ManagedApp{.name = "websearch",
                                 .cpu = c,
                                 .shares = 90.0,
                                 .high_priority = true,
                                 .baseline_ips = Ips{3.0e9}});
  }
  managed.push_back(ManagedApp{.name = "cpuburn",
                               .cpu = 9,
                               .shares = 10.0,
                               .high_priority = false,
                               .baseline_ips = Ips{6.0e9}});

  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kFrequencyShares;
  dcfg.power_limit_w = Watts{60.0};
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  GoldenRun run;
  TickHash hash;
  for (int t = 1; t <= kTotalTicks; t++) {
    const long before = AllocationCount();
    pkg.Tick(kTick);
    if (t > kTotalTicks - 500) {
      run.steady_tick_allocs += AllocationCount() - before;
    }
    if (t % kDaemonEveryTicks == 0) {
      daemon.Step();
    }
    HashPackageTick(pkg, &hash);
  }
  hash.Add(static_cast<double>(websearch.completed_requests()));
  hash.Add(websearch.LatencyPercentile(90.0).value());
  run.hash = hash.value();
  run.energy_bits = EnergyBits(pkg);
  return run;
}

// What the invalidation scenario exercised: its golden only pins the tick
// memos if PROCHOT was entered and left and multi-rate took fast ticks.
struct InvalidationCoverage {
  int prochot_entries = 0;
  int prochot_exits = 0;
  uint64_t fast_ticks = 0;
};

// Walks every input that keys a tick pass: PROCHOT entry and exit (the
// junction limit is lowered so the websearch lanes throttle), RAPL armed then
// cleared, a websearch member offlined then back online, the single-core
// work detached then re-attached, P-state writes, and a multi-rate stretch
// (cooled below the hold guard first) followed by a return to every-tick.
GoldenRun RunInvalidationGolden(InvalidationCoverage* cov) {
  PlatformSpec spec = SkylakeXeon4114();
  spec.thermal.tj_max_c = 58.0;
  Package pkg(spec);
  std::vector<int> ws_cores;
  for (int c = 0; c < 9; c++) {
    ws_cores.push_back(c);
  }
  WebSearch websearch(ws_cores, WebSearch::Params{}, /*seed=*/42);
  pkg.AttachMultiWork(&websearch);
  Process imagick(GetProfile("imagick"), /*seed=*/49);  // AVX-capped.
  pkg.AttachWork(9, &imagick);
  const auto request_all = [&pkg](Mhz mhz) {
    for (int i = 0; i < pkg.num_cores(); i++) {
      pkg.SetRequestedMhz(i, mhz);
    }
  };
  request_all(spec.turbo_max_mhz);

  constexpr int kTicks = 18000;
  GoldenRun run;
  TickHash hash;
  bool was_hot = false;
  for (int t = 1; t <= kTicks; t++) {
    switch (t) {
      case 4000:
        pkg.SetRaplLimit(Watts{35.0});
        break;
      case 5500:
        pkg.ClearRaplLimit();
        break;
      case 6500:
        pkg.SetOnline(4, false);
        break;
      case 7500:
        pkg.SetOnline(4, true);
        break;
      case 8500:
        pkg.DetachWork(9);
        break;
      case 9500:
        pkg.AttachWork(9, &imagick);
        break;
      case 10000:
        request_all(Mhz{1200.0});
        break;
      case 12000:
        pkg.SetTickPolicy(TickPolicy::kMultiRate);
        break;
      case 14000:
        pkg.SetTickPolicy(TickPolicy::kEveryTick);
        request_all(spec.turbo_max_mhz);
        break;
      default:
        break;
    }
    pkg.Tick(kTick);
    const bool hot = pkg.thermal().OverLimit();
    cov->prochot_entries += (hot && !was_hot) ? 1 : 0;
    cov->prochot_exits += (!hot && was_hot) ? 1 : 0;
    was_hot = hot;
    HashPackageTick(pkg, &hash);
  }
  hash.Add(static_cast<double>(websearch.completed_requests()));
  hash.Add(websearch.LatencyPercentile(90.0).value());
  cov->fast_ticks = pkg.tick_stats().fast_ticks;
  run.hash = hash.value();
  run.energy_bits = EnergyBits(pkg);
  return run;
}

// What the open-loop serving scenario exercised, in websearch lane-ticks: its
// golden only pins the serving paths if lanes sat idle, stayed busy for a
// whole slice, finished their queue mid-slice, and read 0 MHz while offline.
struct ServingCoverage {
  int idle_lane_ticks = 0;
  int saturated_lane_ticks = 0;
  int partial_lane_ticks = 0;
  int offline_lane_ticks = 0;
  size_t peak_queue_depth = 0;
};

// A fleet-shaped serving socket: open-loop websearch on cores 0..8 and core 9
// idle at the minimum P-state, under frequency shares.  A diurnal swing with
// a 6 s period starts in its trough (most lanes idle), peaks over the
// socket's capacity at the 45 W limit (queues grow, lanes stay busy for whole
// slices).  One member goes offline (a 0 MHz lane) before the second peak,
// until the daemon's next P-state program brings it back online.
GoldenRun RunOpenLoopServingGolden(ServingCoverage* cov) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  MsrFile msr(&pkg);
  std::vector<int> ws_cores;
  for (int c = 0; c < 9; c++) {
    ws_cores.push_back(c);
  }
  WebSearch::Params params;
  params.open_loop.enabled = true;
  // A mean of 100 requests/s, swinging between 5 and 195.
  params.open_loop.users = 100.0 * 86400.0 / params.open_loop.requests_per_user_per_day;
  params.open_loop.shape = ArrivalShape::kDiurnal;
  params.open_loop.diurnal_amplitude = 0.95;
  params.open_loop.diurnal_period_s = Seconds{6.0};
  params.open_loop.shape_phase_s = Seconds{4.5};
  WebSearch websearch(ws_cores, params, /*seed=*/42);
  pkg.AttachMultiWork(&websearch);
  pkg.SetRequestedMhz(9, spec.min_mhz);

  std::vector<ManagedApp> managed;
  for (int c : ws_cores) {
    managed.push_back(ManagedApp{.name = "websearch",
                                 .cpu = c,
                                 .shares = 1.0,
                                 .high_priority = true,
                                 .baseline_ips = Ips{3.0e9}});
  }
  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kFrequencyShares;
  dcfg.power_limit_w = Watts{45.0};
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  constexpr int kTicks = 12000;
  constexpr int kOfflineCore = 4;
  GoldenRun run;
  TickHash hash;
  for (int t = 1; t <= kTicks; t++) {
    if (t == 7500) {
      msr.SetCoreOnline(kOfflineCore, false);
    }
    pkg.Tick(kTick);
    if (t % kDaemonEveryTicks == 0) {
      daemon.Step();
    }
    HashPackageTick(pkg, &hash);
    for (int c : ws_cores) {
      const Core core = pkg.core(c);
      const double busy = core.last_slice().busy_fraction;
      if (!core.online()) {
        cov->offline_lane_ticks++;
      } else if (busy == 0.0) {
        cov->idle_lane_ticks++;
      } else if (busy == 1.0) {
        cov->saturated_lane_ticks++;
      } else {
        cov->partial_lane_ticks++;
      }
    }
  }
  hash.Add(static_cast<double>(websearch.completed_requests()));
  hash.Add(websearch.LatencyPercentile(90.0).value());
  cov->peak_queue_depth = websearch.peak_queue_depth();
  run.hash = hash.value();
  run.energy_bits = EnergyBits(pkg);
  return run;
}

// --- Tests --------------------------------------------------------------------

// Scoped kernel override: packages constructed inside the scope use the named
// kernel table; reset to runtime auto-dispatch on exit.
class ForcedKernels {
 public:
  explicit ForcedKernels(const char* name) : ok_(simd::ForceKernelsForTest(name)) {}
  ~ForcedKernels() { simd::ForceKernelsForTest(nullptr); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

// Every golden scenario must reproduce the recorded pre-refactor checksum
// under BOTH kernel tables: the scalar reference is the literal port of the
// original loops, and the AVX2 kernels promise lane-exact identical
// arithmetic (no FMA contraction, scalar-order reductions).
class SoaEquivalenceKernels : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (!simd::ForceKernelsForTest(GetParam())) {
      GTEST_SKIP() << "kernel table '" << GetParam()
                   << "' not available on this host/build";
    }
  }
  void TearDown() override { simd::ForceKernelsForTest(nullptr); }
};

TEST_P(SoaEquivalenceKernels, PriorityScenarioMatchesGolden) {
  const GoldenRun run = RunPriorityGolden();
  CheckGolden("priority", run.hash, run.energy_bits, kPriorityHash, kPriorityEnergyBits);
}

TEST_P(SoaEquivalenceKernels, ShareScenarioMatchesGolden) {
  const GoldenRun run = RunSharesGolden();
  CheckGolden("shares", run.hash, run.energy_bits, kSharesHash, kSharesEnergyBits);
}

TEST_P(SoaEquivalenceKernels, WebsearchScenarioMatchesGolden) {
  const GoldenRun run = RunWebsearchGolden();
  CheckGolden("websearch", run.hash, run.energy_bits, kWebsearchHash, kWebsearchEnergyBits);
}

TEST_P(SoaEquivalenceKernels, InvalidationScenarioMatchesGolden) {
  InvalidationCoverage cov;
  const GoldenRun run = RunInvalidationGolden(&cov);
  std::printf("invalidation: %d PROCHOT entries, %d exits, %llu fast ticks\n",
              cov.prochot_entries, cov.prochot_exits,
              static_cast<unsigned long long>(cov.fast_ticks));
  EXPECT_GT(cov.prochot_entries, 0);
  EXPECT_GT(cov.prochot_exits, 0);
  EXPECT_GT(cov.fast_ticks, 0u);
  CheckGolden("invalidation", run.hash, run.energy_bits, kInvalidationHash,
              kInvalidationEnergyBits);
}

TEST_P(SoaEquivalenceKernels, OpenLoopServingSocketMatchesGolden) {
  ServingCoverage cov;
  const GoldenRun run = RunOpenLoopServingGolden(&cov);
  std::printf("open-loop serving: %d idle, %d saturated, %d partial, %d offline lane-ticks, "
              "peak queue %zu\n",
              cov.idle_lane_ticks, cov.saturated_lane_ticks, cov.partial_lane_ticks,
              cov.offline_lane_ticks, cov.peak_queue_depth);
  EXPECT_GT(cov.idle_lane_ticks, 0);
  EXPECT_GT(cov.saturated_lane_ticks, 0);
  EXPECT_GT(cov.partial_lane_ticks, 0);
  EXPECT_GT(cov.offline_lane_ticks, 0);
  CheckGolden("openloop", run.hash, run.energy_bits, kOpenLoopHash, kOpenLoopEnergyBits);
}

INSTANTIATE_TEST_SUITE_P(Kernels, SoaEquivalenceKernels,
                         ::testing::Values("scalar", "avx2"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// The every-tick power memo re-prices only when an input moved.  Ten
// processes hold their busy fraction and activity, so between daemon steps
// nothing moves: only the first tick after a step (whose P-state writes bump
// the control epoch) may re-price.
TEST(SoaEquivalence, SteadyPackageRepricesOnlyAfterDaemonSteps) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> managed;
  for (int i = 0; i < 10; i++) {
    const char* profile = i < 5 ? "leela" : "cactusBSSN";
    procs.push_back(std::make_unique<Process>(GetProfile(profile), 7 + 1000 * i));
    pkg.AttachWork(i, procs.back().get());
    managed.push_back(ManagedApp{.name = profile,
                                 .cpu = i,
                                 .shares = i < 5 ? 20.0 : 80.0,
                                 .high_priority = false,
                                 .baseline_ips = Ips{2.0e9}});
  }
  DaemonConfig dcfg;
  dcfg.kind = PolicyKind::kFrequencyShares;
  dcfg.power_limit_w = Watts{45.0};
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  for (int period = 0; period < kTotalTicks / kDaemonEveryTicks; period++) {
    pkg.Tick(kTick);
    const uint64_t after_first = pkg.tick_stats().repriced_ticks;
    for (int t = 1; t < kDaemonEveryTicks; t++) {
      pkg.Tick(kTick);
    }
    EXPECT_EQ(pkg.tick_stats().repriced_ticks, after_first)
        << "re-priced between daemon steps in period " << period;
    daemon.Step();
  }
  EXPECT_GT(pkg.tick_stats().repriced_ticks, 0u);
  EXPECT_EQ(pkg.tick_stats().full_ticks, static_cast<uint64_t>(kTotalTicks));
}

// Offline lanes are pinned once by SetOnline(false) and skipped by every tick
// pass: the result vectors must stay byte-for-byte untouched while the lane's
// counters advance only by the constant C-state energy draw.
TEST(SoaEquivalence, OfflineLaneResultsStayUntouched) {
  Package pkg(SkylakeXeon4114());
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 6; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 11 + i));
    pkg.AttachWork(i, procs.back().get());
  }
  for (int t = 0; t < 100; t++) {
    pkg.Tick(kTick);
  }
  const int off = 3;
  pkg.SetOnline(off, false);
  const Core pinned = pkg.core(off);
  EXPECT_EQ(pinned.effective_mhz().value(), 0.0);
  EXPECT_EQ(pinned.last_slice().busy_fraction, 0.0);
  EXPECT_EQ(pinned.last_slice().instructions, 0.0);
  const Watts offline_w = pkg.power_model().OfflineCorePowerW();
  EXPECT_EQ(pinned.power_w().value(), offline_w.value());

  const double aperf0 = pinned.aperf_cycles();
  const double mperf0 = pinned.mperf_cycles();
  const double instr0 = pinned.instructions_retired();
  Joules energy = pinned.energy_j();
  for (int t = 0; t < 500; t++) {
    pkg.Tick(kTick);
    const Core c = pkg.core(off);
    // Results pinned at offline time, bit-identical ever after.
    ASSERT_EQ(c.effective_mhz().value(), 0.0);
    ASSERT_EQ(c.power_w().value(), offline_w.value());
    // busy = 0 means zero APERF/MPERF/instruction deltas; energy advances by
    // exactly the offline draw.
    ASSERT_EQ(c.aperf_cycles(), aperf0);
    ASSERT_EQ(c.mperf_cycles(), mperf0);
    ASSERT_EQ(c.instructions_retired(), instr0);
    const Joules want{energy + offline_w * kTick};
    ASSERT_EQ(c.energy_j().value(), want.value());
    energy = c.energy_j();
  }

  // Back online: the lane resumes normal ticking.
  pkg.SetOnline(off, true);
  pkg.Tick(kTick);
  EXPECT_GT(pkg.core(off).effective_mhz().value(), 0.0);
  EXPECT_GT(pkg.core(off).last_slice().instructions, 0.0);
}

// Steady-state ticks must never touch the heap: the single-core work path
// writes through the batch API into package-owned scratch, and the
// multi-core path (websearch) runs through RunBatch spans.  (The websearch
// workload records completed-request latencies, which grows a vector with
// amortized reallocation; the run below sizes the window so the assertion
// covers ticks, not stats growth — a handful of reallocations over 500
// ticks would still fail the `== 0` check if the tick path itself
// allocated.)
TEST(SoaEquivalence, SteadyStateTickIsAllocationFree) {
  if (PrintGolden()) {
    GTEST_SKIP() << "printing golden constants from the pre-refactor engine";
  }
  // Single-core works only: strictly zero allocations per tick, on the full
  // 10-core Skylake and on an 8-core cut of it.
  for (const int cores : {10, 8}) {
    PlatformSpec spec = SkylakeXeon4114();
    spec.num_cores = cores;
    Package pkg(spec);
    std::vector<std::unique_ptr<Process>> procs;
    for (int i = 0; i < cores; i++) {
      procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
      pkg.AttachWork(i, procs.back().get());
    }
    for (int t = 0; t < 1000; t++) {
      pkg.Tick(kTick);  // Warmup: volts caches, RNG pair caches.
    }
    const long before = AllocationCount();
    for (int t = 0; t < 1000; t++) {
      pkg.Tick(kTick);
    }
    const long after = AllocationCount();
    EXPECT_EQ(after - before, 0) << cores << "-core single-core tick path allocated";
  }
  // Spinlock multi-core work: the batch path must also be allocation-free.
  {
    Package pkg(SkylakeXeon4114());
    SpinLockWork spin({0, 1, 2, 3});
    pkg.AttachMultiWork(&spin);
    for (int t = 0; t < 1000; t++) {
      pkg.Tick(kTick);
    }
    const long before = AllocationCount();
    for (int t = 0; t < 1000; t++) {
      pkg.Tick(kTick);
    }
    const long after = AllocationCount();
    EXPECT_EQ(after - before, 0) << "spinlock batch tick path allocated";
  }
}

// Every array the price and settle kernels read or write, for n lanes.
struct KernelLanes {
  explicit KernelLanes(size_t n)
      : online(n), effective(n), slices(n), priced_mhz(n), priced_volts(n), priced_busy(n),
        priced_activity(n), power(n), aperf(n), mperf(n), instructions(n), energy(n),
        targets(n), temps(n) {}

  std::vector<uint8_t> online;
  std::vector<Mhz> effective;
  std::vector<WorkSlice> slices;
  std::vector<Mhz> priced_mhz;
  std::vector<Volts> priced_volts;
  std::vector<double> priced_busy;
  std::vector<double> priced_activity;
  std::vector<Watts> power;
  std::vector<double> aperf;
  std::vector<double> mperf;
  std::vector<double> instructions;
  std::vector<Joules> energy;
  std::vector<Celsius> targets;
  std::vector<Celsius> temps;
};

// Random lanes in a consistent priced state: offline lanes sit at 0 MHz with
// the deep-C-state power; every online lane's power is what it was priced at,
// and a random subset then moves its frequency, busy fraction or activity.
// Temperatures start on both sides of their targets.
KernelLanes RandomLanes(size_t n, const PlatformSpec& spec, const PowerModel& model, Rng* rng) {
  const auto grid_mhz = [&spec, rng] {
    const double steps = (spec.turbo_max_mhz - spec.min_mhz) / spec.step_mhz;
    return spec.min_mhz + spec.step_mhz * static_cast<double>(rng->NextBelow(
                                              static_cast<uint64_t>(steps) + 1));
  };
  const auto busy_fraction = [rng] {
    const uint64_t pick = rng->NextBelow(4);
    return pick == 0 ? 0.0 : pick == 1 ? 1.0 : pick == 2 ? 0.04 : rng->NextDouble();
  };
  KernelLanes l(n);
  for (size_t i = 0; i < n; i++) {
    l.online[i] = rng->NextBelow(4) != 0 ? 1 : 0;
    l.priced_mhz[i] = grid_mhz();
    l.priced_volts[i] = model.VoltsAt(l.priced_mhz[i]);
    l.priced_busy[i] = busy_fraction();
    l.priced_activity[i] = l.priced_busy[i] > 0.0 ? rng->Uniform(0.3, 1.0) : 0.0;
    l.effective[i] = l.priced_mhz[i];
    l.slices[i] = WorkSlice{.instructions = rng->Uniform(0.0, 3.0e6),
                            .busy_fraction = l.priced_busy[i],
                            .activity = l.priced_activity[i],
                            .avx_fraction = 0.0};
    switch (rng->NextBelow(5)) {  // 0 and 1 leave the lane unmoved.
      case 2:
        l.effective[i] = grid_mhz();
        break;
      case 3:
        l.slices[i].busy_fraction = busy_fraction();
        break;
      case 4:
        l.slices[i].activity = rng->Uniform(0.3, 1.0);
        break;
      default:
        break;
    }
    if (l.online[i]) {
      l.power[i] = model.CorePowerW(l.priced_mhz[i], l.priced_busy[i], l.priced_activity[i],
                                    l.priced_volts[i]);
    } else {
      l.effective[i] = Mhz{0.0};
      l.slices[i] = WorkSlice{};
      l.power[i] = model.OfflineCorePowerW();
    }
    l.aperf[i] = rng->Uniform(0.0, 1.0e12);
    l.mperf[i] = rng->Uniform(0.0, 1.0e12);
    l.instructions[i] = rng->Uniform(0.0, 1.0e12);
    l.energy[i] = Joules{rng->Uniform(0.0, 1.0e4)};
    l.targets[i] = rng->Uniform(35.0, 95.0);
    l.temps[i] = rng->Uniform(35.0, 95.0);
  }
  return l;
}

struct KernelRun {
  simd::PriceResult price;
  Celsius hottest = 0.0;
};

constexpr double kRelaxAlpha = 0.0123;
constexpr Celsius kHottestFloorC = 35.5;

// One tick of the two kernels, in the tick's order: price, then settle.
KernelRun RunPriceAndSettle(const simd::TickKernels& k, const PlatformSpec& spec,
                            const PowerModel& model, bool all, KernelLanes* l) {
  const size_t n = l->online.size();
  KernelRun run;
  run.price = k.price(l->effective.data(), l->slices.data(), l->online.data(), model, all,
                      simd::PricedLanes{l->priced_mhz.data(), l->priced_volts.data(),
                                        l->priced_busy.data(), l->priced_activity.data()},
                      l->power.data(), n);
  run.hottest = k.settle(l->effective.data(), l->slices.data(), l->power.data(), spec.tsc_mhz,
                         kTick,
                         simd::CounterLanes{l->aperf.data(), l->mperf.data(),
                                            l->instructions.data(), l->energy.data()},
                         RelaxLanes{l->targets.data(), l->temps.data(), kRelaxAlpha,
                                    kHottestFloorC},
                         n);
  return run;
}

// The AVX2 price and settle kernels equal the scalar table bit for bit at
// every lane count from 1 to 13, so every tail length (n mod 4) and the
// vector body with and without a tail are covered.  The scalar results are
// also checked against what a full re-price of every online lane writes.
TEST(SoaEquivalence, PriceAndSettleKernelsMatchScalarAtEveryLength) {
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not available on this host/build";
  }
  const PlatformSpec spec = SkylakeXeon4114();
  const PowerModel model(&spec);
  const simd::TickKernels& scalar = simd::kScalarKernels;
  ForcedKernels forced("avx2");
  ASSERT_TRUE(forced.ok());
  const simd::TickKernels& avx2 = simd::ActiveKernels();
  ASSERT_STREQ(avx2.name, "avx2");

  Rng rng(2024);
  int unmoved_runs = 0;
  for (size_t n = 1; n <= 13; n++) {
    for (int trial = 0; trial < 200; trial++) {
      const bool all = trial % 4 == 0;
      const KernelLanes start = RandomLanes(n, spec, model, &rng);
      KernelLanes want = start;
      KernelLanes got = start;
      const KernelRun w = RunPriceAndSettle(scalar, spec, model, all, &want);
      const KernelRun g = RunPriceAndSettle(avx2, spec, model, all, &got);
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial << " all=" << all);

      bool any_moved = false;
      int online_lanes = 0;
      int busy_cores = 0;
      Celsius hottest = kHottestFloorC;
      for (size_t i = 0; i < n; i++) {
        hottest = std::max(hottest, want.temps[i]);
        if (!start.online[i]) {
          continue;
        }
        online_lanes++;
        any_moved |= all || start.effective[i] != start.priced_mhz[i] ||
                     start.slices[i].busy_fraction != start.priced_busy[i] ||
                     start.slices[i].activity != start.priced_activity[i];
        busy_cores += start.slices[i].busy_fraction > 0.05 ? 1 : 0;
        const Mhz f = start.effective[i];
        const Watts full = model.CorePowerW(f, start.slices[i].busy_fraction,
                                            start.slices[i].activity, model.VoltsAt(f));
        ASSERT_EQ(Bits(want.power[i].value()), Bits(full.value())) << "lane " << i;
      }
      unmoved_runs += (online_lanes > 0 && !any_moved) ? 1 : 0;
      ASSERT_EQ(w.price.moved, any_moved);
      ASSERT_EQ(w.price.busy_cores, busy_cores);
      ASSERT_EQ(Bits(w.hottest), Bits(hottest));

      ASSERT_EQ(g.price.moved, w.price.moved);
      ASSERT_EQ(g.price.busy_cores, w.price.busy_cores);
      ASSERT_EQ(Bits(g.hottest), Bits(w.hottest));
      for (size_t i = 0; i < n; i++) {
        SCOPED_TRACE(testing::Message() << "lane " << i);
        ASSERT_EQ(Bits(got.power[i].value()), Bits(want.power[i].value()));
        ASSERT_EQ(Bits(got.priced_mhz[i].value()), Bits(want.priced_mhz[i].value()));
        ASSERT_EQ(Bits(got.priced_volts[i].value()), Bits(want.priced_volts[i].value()));
        ASSERT_EQ(Bits(got.priced_busy[i]), Bits(want.priced_busy[i]));
        ASSERT_EQ(Bits(got.priced_activity[i]), Bits(want.priced_activity[i]));
        ASSERT_EQ(Bits(got.aperf[i]), Bits(want.aperf[i]));
        ASSERT_EQ(Bits(got.mperf[i]), Bits(want.mperf[i]));
        ASSERT_EQ(Bits(got.instructions[i]), Bits(want.instructions[i]));
        ASSERT_EQ(Bits(got.energy[i].value()), Bits(want.energy[i].value()));
        ASSERT_EQ(Bits(got.temps[i]), Bits(want.temps[i]));
      }
    }
  }
  EXPECT_GT(unmoved_runs, 0) << "no run left every online lane unmoved";
}

// Multi-rate ticking must also stay off the heap: fast ticks, resyncs and
// plan rebuilds all reuse pre-reserved scratch.
TEST(SoaEquivalence, MultiRateTickIsAllocationFree) {
  if (PrintGolden()) {
    GTEST_SKIP() << "printing golden constants from the pre-refactor engine";
  }
  Package pkg(SkylakeXeon4114());
  pkg.SetTickPolicy(TickPolicy::kMultiRate);
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
    pkg.AttachWork(i, procs.back().get());
  }
  for (int t = 0; t < 1000; t++) {
    pkg.Tick(kTick);
  }
  const long before = AllocationCount();
  for (int t = 0; t < 1000; t++) {
    pkg.Tick(kTick);
  }
  const long after = AllocationCount();
  EXPECT_EQ(after - before, 0) << "multi-rate tick path allocated";
  EXPECT_GT(pkg.tick_stats().fast_ticks, 0u)
      << "multi-rate never took the fast path for a steady gcc fleet";
}

// The tick engine's perf contract: on the 128-core EPYC running 128 gcc
// processes, the dispatched kernels with multi-rate ticking must tick at
// least 5x faster than the forced-scalar every-tick reference.  Both
// packages live in this process and tick in interleaved rounds, and the
// round medians are compared, so the ratio is self-relative on any host.
TEST(SoaEquivalence, MultiRateTicksFiveTimesFasterThanForcedScalar) {
  constexpr int kWarmupTicks = 1000;
  constexpr int kRoundTicks = 4000;
  constexpr int kRounds = 9;
  constexpr double kMinSpeedup = 5.0;
  const PlatformSpec spec = ManyCoreEpyc128();

  struct Engine {
    std::unique_ptr<Package> pkg;
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<double> round_s;
  };
  const auto build = [&spec](const char* kernel, TickPolicy policy) {
    ForcedKernels forced(kernel);
    EXPECT_TRUE(forced.ok()) << kernel;
    Engine e;
    e.pkg = std::make_unique<Package>(spec);
    e.pkg->SetTickPolicy(policy);
    for (int i = 0; i < spec.num_cores; i++) {
      e.procs.push_back(
          std::make_unique<Process>(GetProfile("gcc"), 1 + static_cast<uint64_t>(i)));
      e.pkg->AttachWork(i, e.procs.back().get());
    }
    return e;
  };
  Engine scalar = build("scalar", TickPolicy::kEveryTick);
  Engine multirate = build("auto", TickPolicy::kMultiRate);

  const auto run = [](Engine& e, int ticks) {
    const Seconds start = perf::NowS();
    for (int t = 0; t < ticks; t++) {
      e.pkg->Tick(kTick);
    }
    return (perf::NowS() - start).value();
  };
  run(scalar, kWarmupTicks);
  run(multirate, kWarmupTicks);
  for (int r = 0; r < kRounds; r++) {
    scalar.round_s.push_back(run(scalar, kRoundTicks));
    multirate.round_s.push_back(run(multirate, kRoundTicks));
  }

  EXPECT_STREQ(scalar.pkg->tick_kernel_name(), "scalar");
  EXPECT_EQ(scalar.pkg->tick_stats().fast_ticks, 0u);
  EXPECT_GT(multirate.pkg->tick_stats().fast_ticks, 0u)
      << "multi-rate never took the fast path for a steady gcc fleet";

  const double speedup = Percentile(scalar.round_s, 50.0) / Percentile(multirate.round_s, 50.0);
  std::printf("multi-rate (%s) over forced scalar: %.2fx (floor %.1fx)\n",
              multirate.pkg->tick_kernel_name(), speedup, kMinSpeedup);
  if (!kWallClockGates) {
    GTEST_SKIP() << "wall-clock floor needs an optimized, unsanitized build";
  }
  EXPECT_GE(speedup, kMinSpeedup);
}

}  // namespace
}  // namespace papd
