// The simulated processor package: cores, turbo, AVX caps, RAPL, power.
//
// Package::Tick advances one time step.  A full tick touches each lane once
// after its works run:
//   1. census: active, AVX-active and single-core-work lane counts (keyed by
//      the control epoch);
//   2. clamp: effective per-core frequency = min(requested, turbo ladder
//      limit, AVX cap if the core runs AVX code, RAPL ceiling), PROCHOT to
//      the floor (keyed by the epoch, RAPL armed and PROCHOT);
//   3. works: workloads run at those frequencies and write their slices
//      (the per-lane scan for single-core works is skipped when the census
//      counted none);
//   4. price: lanes whose frequency, busy fraction or activity moved since
//      they were last priced get new per-core watts (every online lane when
//      the epoch moved); when any did, uncore power is added, the package
//      total re-summed and the thermal targets set;
//   5. settle: hardware counters (APERF/MPERF, retired instructions,
//      energy) advance and every lane's temperature relaxes, in one pass;
//      the RAPL controller observes package power and adjusts its ceiling
//      for the next tick.
//
// Per-core state is structure-of-arrays (CoreArray, core.h): each tick pass
// streams over contiguous vectors, workload slices are written in place via
// the RunBatch span API, and the steady-state tick performs no heap
// allocation.  The per-core passes themselves are SIMD kernels
// (src/cpusim/simd/), runtime-dispatched between an AVX2 table and the
// bit-exact scalar reference.
//
// Tick policies:
//   kEveryTick   the bit-pinned reference mode.  Works, counters, RAPL,
//                thermal relaxation, energy and time advance every tick; the
//                census and clamp passes are memoized and recompute only
//                when one of their inputs moved since they last ran, and the
//                price pass re-prices only the lanes whose inputs moved (see
//                the steps above).  A skipped pass or lane would have
//                rewritten exactly the bits it left in place, so the memo
//                never changes a simulated output;
//   kMultiRate   cores whose workload reports a steady phase (and whose
//                control plane is quiescent) are *held*: their slice, power
//                and effective frequency are replayed for up to K ticks
//                while hardware counters still advance exactly every tick.
//                Any control-plane event — P-state write, RAPL change,
//                online toggle, attach/detach, fault-plan arming — bumps the
//                control epoch and forces a full re-synced tick.  Held
//                workloads catch their internal accounting up analytically
//                (CoreWork::RunSteadyBatch) at each resync, so a steady
//                fleet ticks in O(changed cores).  Multi-rate results are
//                statistically, not bitwise, equivalent to every-tick
//                (tests/multirate_test.cc pins the tolerance).

#ifndef SRC_CPUSIM_PACKAGE_H_
#define SRC_CPUSIM_PACKAGE_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/cpusim/core.h"
#include "src/cpusim/power_model.h"
#include "src/cpusim/rapl.h"
#include "src/cpusim/simd/tick_kernels.h"
#include "src/cpusim/thermal.h"
#include "src/platform/platform_spec.h"
#include "src/specsim/core_work.h"

namespace papd {

enum class TickPolicy {
  kEveryTick,
  kMultiRate,
};

class Package {
 public:
  explicit Package(PlatformSpec spec);

  const PlatformSpec& spec() const { return spec_; }
  const PowerModel& power_model() const { return power_model_; }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  // Read-only view of core i; mutations go through the Set* methods below.
  Core core(int i) const { return Core(&cores_, i); }

  // --- Work attachment (non-owning) ----------------------------------------
  // The core must be in range and not belong to a multi-core work
  // (PAPD_CHECKed in every build; DetachWork and the per-core setters below
  // check the range too).
  void AttachWork(int core, CoreWork* work);
  void DetachWork(int core);
  // Attaches a coupled multi-core work to the cores it reports.  Those must
  // be one ascending run of in-range cores (first, first + 1, ...) with no
  // work attached yet, so the tick hands the work its lanes as spans of the
  // per-core arrays (PAPD_CHECKed in every build).
  void AttachMultiWork(MultiCoreWork* work);

  // --- Software controls ----------------------------------------------------
  // Programs a core's frequency; quantized down to the platform grid.
  void SetRequestedMhz(int core, Mhz mhz);
  // Forces a core into/out of a deep C-state.
  void SetOnline(int core, bool online);
  // Hardware RAPL limiting (Skylake only in the paper's platforms; a no-op
  // guard rejects it when the platform lacks the feature).
  void SetRaplLimit(Watts limit_w);
  void ClearRaplLimit();
  const RaplController& rapl() const { return rapl_; }
  const ThermalModel& thermal() const { return thermal_; }

  // --- Simulation ------------------------------------------------------------
  void Tick(Seconds dt);

  // Socket-level steady-state hold: advances up to `max_ticks` ticks of
  // length `dt` in one closed-form segment when *every* lane is held under a
  // valid multi-rate plan (quiescent control plane, RAPL off, thermals
  // clear of the PROCHOT guard, no multi-core works, no unsteady lanes).
  // The segment replays the frozen plan for k = min(max_ticks - 1,
  // hold_remaining_) ticks — package energy and simulated time accumulate
  // per tick, bit-identical to the equivalent TickFast sequence; hardware
  // counters advance by the multiplied-out per-tick increments (ulp-level
  // difference only, every per-tick input is frozen) — then catches held
  // works up via RunSteadyBatch and takes one refresh tick that re-runs the
  // works and re-prices power before replanning.  Returns the number of
  // ticks advanced (k + 1), or 0 when the predicate fails and the caller
  // must fall back to Tick().  The thermal guard is evaluated per segment
  // rather than per tick: temperatures advance in closed form, so a segment
  // may overrun the guard by at most max_ticks - 1 ticks before the next
  // predicate check catches it (covered by kThermalHoldGuardC).
  int AdvanceSteady(Seconds dt, int max_ticks);

  // Default and minimum hold horizons for multi-rate ticking: a lane is only
  // held when its steady horizon covers at least kMinHoldTicks (shorter
  // holds don't amortize the resync), and no hold window exceeds the
  // configured maximum.
  static constexpr int kDefaultMaxHoldTicks = 64;
  static constexpr int kMinHoldTicks = 8;
  // Fast ticks are suppressed within this margin of the PROCHOT threshold,
  // so thermal throttling decisions never lag behind a hold window.
  static constexpr double kThermalHoldGuardC = 5.0;

  struct TickStats {
    uint64_t full_ticks = 0;
    uint64_t fast_ticks = 0;
    uint64_t work_syncs = 0;      // RunSteadyBatch catch-up calls.
    uint64_t plan_rebuilds = 0;
    uint64_t hold_segments = 0;   // AdvanceSteady segments taken.
    uint64_t batched_ticks = 0;   // Ticks advanced in closed form (excl. refresh).
    uint64_t repriced_ticks = 0;  // Full ticks in which any lane re-priced.
  };

  void SetTickPolicy(TickPolicy policy, int max_hold_ticks = kDefaultMaxHoldTicks);
  const TickStats& tick_stats() const { return tick_stats_; }
  // Kernel table actually driving the tick passes ("scalar" or "avx2").
  const char* tick_kernel_name() const { return kernels_->name; }

  // Control-plane epoch: bumped by every externally visible control action
  // (P-state write, RAPL change, online toggle, attach/detach).  The
  // multi-rate planner re-syncs and replans whenever it changes, and the
  // every-tick memos recompute.
  uint64_t control_epoch() const { return control_epoch_; }
  // Control-plane events with no dedicated setter (e.g. MsrFile arming a
  // fault plan or dropping a P-state write) report themselves here.
  void NotifyControlPlaneEvent() { control_epoch_++; }

  // Catches held workloads' internal accounting up to now() (multi-rate
  // defers it between resyncs).  No-op under kEveryTick; call before reading
  // workload-internal state (Process::instructions_retired etc.) mid-run.
  void FlushSteadyWork();

  Seconds now() const { return now_; }
  Watts last_package_power_w() const { return last_package_power_w_; }
  Watts last_uncore_power_w() const { return last_uncore_power_w_; }
  Joules package_energy_j() const { return package_energy_j_; }

  // Number of distinct requested frequencies across online cores; the
  // Ryzen MSR front-end keeps this <= 3 (spec.max_simultaneous_pstates).
  int DistinctRequestedFrequencies() const;

 private:
  // One attached MultiCoreWork with its per-attachment caches: the member
  // lanes [first, first + count) and the AVX flag are virtual calls answered
  // once at attach.
  struct MultiWorkEntry {
    MultiCoreWork* work = nullptr;
    size_t first = 0;
    size_t count = 0;
    uint8_t uses_avx = 0;
  };

  // Memo key that matches no control epoch: the pass runs on its next tick.
  static constexpr uint64_t kStaleEpoch = ~uint64_t{0};

  // Full tick: the bit-pinned reference path.  Every lane's work and
  // counters advance; the census and clamp passes run when their inputs
  // moved, and the price pass re-prices the lanes whose inputs moved (see
  // the steps at the top of this file).
  void TickFull(Seconds dt);
  // Recounts active, AVX-active and single-core-work lanes and rewrites
  // avx_lane_.
  void RefreshCensus();
  // The price pass: the price kernel re-prices every online lane (`all`) or
  // only those whose inputs moved.  When any lane re-priced, or `all`, sets
  // the package total (index-order sum), the uncore share and the thermal
  // targets, and returns true.
  bool Reprice(bool all);
  // The settle pass: one kernel pass advances every lane's counters and
  // relaxes its temperature.
  void Settle(Seconds dt);
  // Multi-rate fast tick: runs only unsteady lanes' work and power; held
  // lanes replay their plan-time slice.  Counters advance exactly.
  void TickFast(Seconds dt);
  // Classifies lanes held/unsteady after a full tick and sets the window.
  void RebuildHoldPlan(Seconds dt);
  bool CanFastTick(Seconds dt) const;
  // Multi-core work pass shared by the full and fast ticks: each work reads
  // and writes its lanes' spans in place.
  void RunMultiWorks(Seconds dt);

  PlatformSpec spec_;
  PStateTable pstates_;
  PowerModel power_model_;
  RaplController rapl_;
  ThermalModel thermal_;
  CoreArray cores_;
  std::vector<MultiWorkEntry> multi_works_;
  // multi_member_[i] != 0 iff core i belongs to an attached MultiCoreWork;
  // maintained by AttachMultiWork so Tick never scans the work list.
  std::vector<uint8_t> multi_member_;

  // DistinctRequestedFrequencies marks P-state grid slots here; cleared
  // after each call (mutable: the query is logically const).
  mutable std::vector<uint8_t> scratch_pstate_marks_;

  // --- Tick engine state -----------------------------------------------------
  // Kernel table chosen at construction (simd::ActiveKernels()).
  const simd::TickKernels* kernels_;
  TickPolicy tick_policy_ = TickPolicy::kEveryTick;
  int max_hold_ticks_ = kDefaultMaxHoldTicks;
  uint64_t control_epoch_ = 0;

  // Every-tick memos: each pass records the epoch it last ran at.
  uint64_t census_epoch_ = kStaleEpoch;
  int census_active_ = 0;
  int census_avx_active_ = 0;
  int census_works_ = 0;  // Online lanes carrying a single-core work.
  std::vector<uint8_t> avx_lane_;  // 1 iff online with an AVX single-core work.
  uint64_t clamp_epoch_ = kStaleEpoch;
  bool clamp_hot_ = false;  // Some lane was at/above tj_max_c at the last clamp.
  // The epoch of the last price pass; TickFast prices only its unsteady
  // lanes and resets this, so the next full tick prices every lane.
  uint64_t power_epoch_ = kStaleEpoch;
  // Busy fraction and activity each lane was last priced at (its frequency
  // is volts_cache_mhz).
  std::vector<double> priced_busy_;
  std::vector<double> priced_activity_;

  // Multi-rate hold plan, rebuilt after full ticks taken with RAPL off.
  // Valid while the control epoch and tick length are unchanged and
  // hold_remaining_ > 0.
  bool plan_valid_ = false;
  uint64_t plan_epoch_ = 0;
  Seconds plan_dt_{-1.0};
  int hold_remaining_ = 0;
  // After a rebuild that found nothing holdable, skip replanning for a few
  // ticks instead of re-scanning steadiness every tick.
  int rebuild_cooldown_ = 0;
  // Fast ticks taken since the held works were last caught up.
  int held_pending_ticks_ = 0;
  // Plan-time aggregates over held lanes (index-order power sum).
  Watts held_power_sum_{0.0};
  int held_busy_cores_ = 0;
  std::vector<uint8_t> lane_held_;
  // Lanes serviced every fast tick; pre-reserved so replanning never
  // allocates.
  std::vector<int> scratch_unsteady_;
  TickStats tick_stats_;

  Seconds now_{0.0};
  Watts last_package_power_w_{0.0};
  Watts last_uncore_power_w_{0.0};
  Joules package_energy_j_{0.0};
};

// Tick-engine knobs plumbed through RunOptions (experiments) and
// BudgetTreeConfig (cluster): which tick policy drives Package::Tick, plus
// the socket/cluster-granularity extensions (kMultiRate only; both are
// ignored under kEveryTick).
struct TickOptions {
  TickPolicy policy = TickPolicy::kEveryTick;
  // Multi-rate hold horizon SocketStack passes to Package::SetTickPolicy.
  static constexpr int max_hold_ticks = Package::kDefaultMaxHoldTicks;

  // Socket-level steady-state hold: SocketStack advances whole control
  // periods through Package::AdvanceSteady segments, and skips the daemon
  // step entirely once the daemon has been quiescent (no grant change, no
  // control-plane writes, ladder nominal, no fault plan armed) for
  // SocketStack::kQuietPeriodsToHold consecutive periods.  A skipped-daemon
  // period resyncs — falls back to a live daemon step — on any grant
  // change, control-epoch bump, ladder departure, fault arming, or measured
  // power drifting out of hold_power_band.
  bool socket_hold = false;
  // Relative band around the power measured when the daemon hold engaged;
  // leaving it forces a resync (the workload mix changed enough that the
  // daemon must re-observe).
  static constexpr double hold_power_band = 0.03;
  // Held periods between forced live daemon steps: none.  The band and
  // epoch predicates alone end a hold, which keeps held periods
  // allocation-free.
  static constexpr int hold_recheck_periods = 0;

  // Replica memoization (BudgetTree): simulate one representative socket
  // per equivalence class (equal RackSocketConfig + identical grant
  // history) and fan its measurements out to the replicas.  Replicas
  // are materialized on demand — by grant divergence or a leaf-internals
  // accessor — by replaying the representative's recorded grant run-lengths.
  bool memoize_replicas = false;
};

}  // namespace papd

#endif  // SRC_CPUSIM_PACKAGE_H_
