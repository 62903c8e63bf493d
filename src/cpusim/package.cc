#include "src/cpusim/package.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace papd {

Package::Package(PlatformSpec spec)
    : spec_(std::move(spec)),
      pstates_(spec_.min_mhz, spec_.turbo_max_mhz, spec_.step_mhz),
      power_model_(&spec_),
      rapl_(&spec_),
      thermal_(spec_.thermal, spec_.num_cores),
      cores_(spec_.num_cores, spec_.base_max_mhz),
      kernels_(&simd::ActiveKernels()) {
  const auto n = static_cast<size_t>(spec_.num_cores);
  multi_member_.assign(n, 0);
  avx_lane_.assign(n, 0);
  scratch_pstate_marks_.assign(pstates_.size(), 0);
  priced_busy_.assign(n, 0.0);
  priced_activity_.assign(n, 0.0);
  lane_held_.assign(n, 0);
  scratch_unsteady_.reserve(n);
}

void Package::AttachWork(int core, CoreWork* work) {
  PAPD_CHECK(core >= 0 && core < num_cores())
      << "AttachWork: core" << core << "out of range for" << num_cores() << "cores";
  const auto i = static_cast<size_t>(core);
  PAPD_CHECK(!multi_member_[i]) << "AttachWork: core" << core
                                << "already belongs to a multi-core work";
  cores_.work[i] = work;
  // UsesAvx is contractually invariant while attached; cache it so the
  // census makes no virtual calls.
  cores_.work_avx[i] = (work != nullptr && work->UsesAvx()) ? 1 : 0;
  control_epoch_++;
}

void Package::DetachWork(int core) {
  PAPD_CHECK(core >= 0 && core < num_cores())
      << "DetachWork: core" << core << "out of range for" << num_cores() << "cores";
  const auto i = static_cast<size_t>(core);
  cores_.work[i] = nullptr;
  cores_.work_avx[i] = 0;
  // The lane idles from the next tick on; zero the slice here once instead
  // of rewriting zeros every tick.
  if (!multi_member_[i]) {
    cores_.slice[i] = WorkSlice{};
  }
  control_epoch_++;
}

void Package::AttachMultiWork(MultiCoreWork* work) {
  const std::vector<int>& members = work->Cores();
  PAPD_CHECK(!members.empty()) << "AttachMultiWork:" << work->Name() << "reports no cores";
  const int first = members.front();
  for (size_t j = 0; j < members.size(); j++) {
    const int c = members[j];
    PAPD_CHECK(c >= 0 && c < num_cores()) << "AttachMultiWork:" << work->Name() << "core" << c
                                          << "out of range for" << num_cores() << "cores";
    PAPD_CHECK(c == first + static_cast<int>(j))
        << "AttachMultiWork:" << work->Name() << "cores are not one ascending run: core" << c
        << "at position" << j;
    const auto i = static_cast<size_t>(c);
    PAPD_CHECK(cores_.work[i] == nullptr && !multi_member_[i])
        << "AttachMultiWork:" << work->Name() << "core" << c << "already has a work attached";
    multi_member_[i] = 1;
  }
  MultiWorkEntry entry;
  entry.work = work;
  entry.first = static_cast<size_t>(first);
  entry.count = members.size();
  entry.uses_avx = work->UsesAvx() ? 1 : 0;
  multi_works_.push_back(entry);
  control_epoch_++;
}

void Package::SetRequestedMhz(int core, Mhz mhz) {
  PAPD_CHECK(core >= 0 && core < num_cores())
      << "SetRequestedMhz: core" << core << "out of range for" << num_cores() << "cores";
  cores_.requested_mhz[static_cast<size_t>(core)] = pstates_.QuantizeDown(mhz);
  control_epoch_++;
}

void Package::SetOnline(int core, bool online) {
  PAPD_CHECK(core >= 0 && core < num_cores())
      << "SetOnline: core" << core << "out of range for" << num_cores() << "cores";
  const auto i = static_cast<size_t>(core);
  cores_.online[i] = online ? 1 : 0;
  if (!online) {
    // An offline lane's per-tick results are constant; write them once here
    // and the tick passes skip the lane entirely (they used to recompute and
    // rewrite these same values every tick).
    cores_.effective_mhz[i] = Mhz{0.0};
    if (!multi_member_[i]) {
      cores_.slice[i] = WorkSlice{};
    }
    cores_.power_w[i] = power_model_.OfflineCorePowerW();
  }
  control_epoch_++;
}

void Package::SetRaplLimit(Watts limit_w) {
  if (!spec_.has_rapl_limit) {
    PAPD_LOG_WARN("platform %s does not support RAPL limiting; ignored", spec_.name.c_str());
    return;
  }
  rapl_.SetLimit(limit_w);
  control_epoch_++;
}

void Package::ClearRaplLimit() {
  rapl_.Disable();
  control_epoch_++;
}

void Package::SetTickPolicy(TickPolicy policy, int max_hold_ticks) {
  FlushSteadyWork();
  tick_policy_ = policy;
  max_hold_ticks_ = std::max(1, max_hold_ticks);
  plan_valid_ = false;
  hold_remaining_ = 0;
  rebuild_cooldown_ = 0;
  control_epoch_++;
}

int Package::DistinctRequestedFrequencies() const {
  // Requested frequencies always sit on the P-state grid (SetRequestedMhz
  // quantizes), so distinct values are counted by marking grid slots in a
  // reusable bitmap instead of building a std::set per call.
  const size_t n = cores_.size();
  int distinct = 0;
  for (size_t i = 0; i < n; i++) {
    if (!cores_.online[i]) {
      continue;
    }
    const size_t slot = pstates_.IndexOf(cores_.requested_mhz[i]);
    if (!scratch_pstate_marks_[slot]) {
      scratch_pstate_marks_[slot] = 1;
      distinct++;
    }
  }
  for (size_t i = 0; i < n; i++) {
    if (cores_.online[i]) {
      scratch_pstate_marks_[pstates_.IndexOf(cores_.requested_mhz[i])] = 0;
    }
  }
  return distinct;
}

void Package::Tick(Seconds dt) {
  if (tick_policy_ == TickPolicy::kMultiRate) {
    if (CanFastTick(dt)) {
      TickFast(dt);
      return;
    }
    // Resync: catch held works up, take a full reference tick, then replan
    // (or run down the cooldown when the last plan found nothing to hold).
    // With RAPL armed no plan is built: CanFastTick would reject it, and
    // arming or clearing RAPL bumps the epoch, which forces a rebuild anyway.
    FlushSteadyWork();
    TickFull(dt);
    if (rapl_.enabled()) {
      plan_valid_ = false;
    } else if (rebuild_cooldown_ > 0 && plan_epoch_ == control_epoch_ && dt == plan_dt_) {
      rebuild_cooldown_--;
    } else {
      RebuildHoldPlan(dt);
    }
    return;
  }
  TickFull(dt);
}

// PAPD_HOT
int Package::AdvanceSteady(Seconds dt, int max_ticks) {
  if (tick_policy_ != TickPolicy::kMultiRate || max_ticks < 2 || !CanFastTick(dt) ||
      !scratch_unsteady_.empty() || !multi_works_.empty()) {
    return 0;
  }
  const size_t n = cores_.size();
  const int k = std::min(max_ticks - 1, hold_remaining_);

  // --- k held ticks in closed form ----------------------------------------
  // Every lane is held, so each of the k ticks would replay exactly the
  // frozen plan: same slices, effective frequencies, per-core power, and
  // the same package total.  Counters take the per-tick kernel increments
  // (SettleScalar) multiplied out; package energy and time accumulate in
  // the per-tick order so the trajectory stays bit-identical to the
  // equivalent TickFast sequence.
  const double kd = static_cast<double>(k);
  const Mhz* effective = cores_.effective_mhz.data();
  const WorkSlice* slices = cores_.slice.data();
  for (size_t i = 0; i < n; i++) {
    const double busy = slices[i].busy_fraction;
    cores_.aperf_cycles[i] += effective[i] * kHzPerMhz * dt * busy * kd;
    cores_.mperf_cycles[i] += spec_.tsc_mhz * kHzPerMhz * dt * busy * kd;
    cores_.instructions_retired[i] += slices[i].instructions * kd;
    cores_.energy_j[i] += cores_.power_w[i] * dt * kd;
  }
  const Watts uncore_held{power_model_.UncorePowerW(held_busy_cores_)};
  const Watts total_held{held_power_sum_ + uncore_held};
  for (int t = 0; t < k; t++) {
    package_energy_j_ += total_held * dt;
    now_ += dt;
  }
  thermal_.UpdateSteady(cores_.power_w, uncore_held, dt, k);
  last_package_power_w_ = total_held;
  last_uncore_power_w_ = uncore_held;
  hold_remaining_ -= k;
  held_pending_ticks_ += k;
  tick_stats_.batched_ticks += static_cast<uint64_t>(k);
  tick_stats_.hold_segments++;

  // --- catch-up + one refresh tick -----------------------------------------
  // Held works absorb the whole deferred window analytically, then run one
  // real tick so the next plan is built from fresh slices.  The census and
  // clamp passes are safely skipped: their inputs (online/attach flags,
  // requested frequencies, RAPL, PROCHOT within the guard) are all
  // epoch-stable, so the effective frequencies are unchanged.
  FlushSteadyWork();
  const uint8_t* online = cores_.online.data();
  CoreWork* const* work = cores_.work.data();
  Mhz* effective_mut = cores_.effective_mhz.data();
  WorkSlice* slices_mut = cores_.slice.data();
  for (size_t i = 0; i < n; i++) {
    if (online[i] && work[i] != nullptr) {
      work[i]->RunBatch(dt, &effective_mut[i], &slices_mut[i], 1);
    }
  }
  Reprice(/*all=*/true);
  Settle(dt);
  package_energy_j_ += last_package_power_w_ * dt;
  now_ += dt;
  tick_stats_.fast_ticks++;
  RebuildHoldPlan(dt);
  return k + 1;
}

// PAPD_HOT
void Package::RunMultiWorks(Seconds dt) {
  // Members are one run of lanes, so each work reads its effective
  // frequencies and writes its slices in place.  An offlined member's
  // frequency is the 0 MHz SetOnline(false) pinned: it contributes no cycles.
  const Mhz* effective = cores_.effective_mhz.data();
  WorkSlice* slices = cores_.slice.data();
  for (const MultiWorkEntry& w : multi_works_) {
    w.work->RunBatch(dt, effective + w.first, slices + w.first, w.count);
  }
}

void Package::RefreshCensus() {
  // Active (C0) cores for the turbo ladder: online with a single-core work
  // or multi-work membership.  AVX-active cores for the AVX caps: online
  // single-core AVX works, plus every member of an AVX multi-core work.
  const size_t n = cores_.size();
  int active = 0;
  int avx_active = 0;
  int works = 0;
  for (size_t i = 0; i < n; i++) {
    const bool has_work = cores_.work[i] != nullptr;
    avx_lane_[i] = (cores_.online[i] && has_work) ? cores_.work_avx[i] : 0;
    if (!cores_.online[i] || (!has_work && !multi_member_[i])) {
      continue;
    }
    active++;
    avx_active += avx_lane_[i];
    works += has_work ? 1 : 0;
  }
  for (const MultiWorkEntry& w : multi_works_) {
    if (w.uses_avx) {
      avx_active += static_cast<int>(w.count);
    }
  }
  census_active_ = active;
  census_avx_active_ = avx_active;
  census_works_ = works;
  census_epoch_ = control_epoch_;
}

// PAPD_HOT
bool Package::Reprice(bool all) {
  const simd::PriceResult r = kernels_->price(
      cores_.effective_mhz.data(), cores_.slice.data(), cores_.online.data(), power_model_, all,
      simd::PricedLanes{cores_.volts_cache_mhz.data(), cores_.volts_cache_v.data(),
                        priced_busy_.data(), priced_activity_.data()},
      cores_.power_w.data(), cores_.size());
  power_epoch_ = control_epoch_;
  if (!all && !r.moved) {
    // Every lane's power, the package total, the uncore share and the
    // thermal targets of the last price still hold.
    return false;
  }
  // Package power reduces in scalar index order regardless of kernel width:
  // reassociating this sum would break the bit-identity contract.
  Watts total{0.0};
  for (const Watts w : cores_.power_w) {
    total += w;
  }
  const Watts uncore{power_model_.UncorePowerW(r.busy_cores)};
  total += uncore;
  last_package_power_w_ = total;
  last_uncore_power_w_ = uncore;
  thermal_.SetPower(cores_.power_w, uncore);
  return true;
}

// PAPD_HOT
void Package::Settle(Seconds dt) {
  thermal_.SetHottest(kernels_->settle(
      cores_.effective_mhz.data(), cores_.slice.data(), cores_.power_w.data(), spec_.tsc_mhz, dt,
      simd::CounterLanes{cores_.aperf_cycles.data(), cores_.mperf_cycles.data(),
                         cores_.instructions_retired.data(), cores_.energy_j.data()},
      thermal_.LanesForTick(dt), cores_.size()));
}

// PAPD_HOT
void Package::TickFull(Seconds dt) {
  const size_t n = cores_.size();
  const uint8_t* online = cores_.online.data();
  CoreWork* const* work = cores_.work.data();
  Mhz* effective = cores_.effective_mhz.data();
  WorkSlice* slices = cores_.slice.data();

  // 1. Census: its inputs (online, attach and multi-work flags) change only
  // through setters that bump the control epoch.
  if (census_epoch_ != control_epoch_) {
    RefreshCensus();
  }

  // 2. Effective frequencies, written straight into the results array.
  // Offline lanes were pinned to zero when they went offline and are
  // skipped here.  With the epoch unchanged and RAPL off, the clamp's only
  // moving input is PROCHOT: it is skipped while no lane was at or above
  // the junction limit at the last clamp and none is now.
  const bool hot = thermal_.max_temp_c() >= spec_.thermal.tj_max_c;
  if (clamp_epoch_ != control_epoch_ || rapl_.enabled() || clamp_hot_ || hot) {
    simd::ClampParams cp;
    cp.turbo_limit = spec_.TurboLimitMhz(census_active_);
    cp.avx_cap = spec_.AvxCapMhz(census_avx_active_);
    cp.rapl_ceiling = rapl_.ceiling_mhz();
    cp.min_mhz = spec_.min_mhz;
    cp.tj_max_c = spec_.thermal.tj_max_c;
    cp.rapl_on = rapl_.enabled();
    kernels_->clamp(cores_.requested_mhz.data(), online, avx_lane_.data(),
                    thermal_.temps_c().data(), cp, effective, n);
    clamp_epoch_ = control_epoch_;
    clamp_hot_ = hot;
  }

  // 3. Run workloads; slices land in place via the span API (no per-tick
  // vector allocation and no result copies).  Idle and offline lanes keep
  // the zero slice written at detach/offline time.  The census counted the
  // online single-core works, so a package without any (a serving socket)
  // skips the scan.
  if (census_works_ > 0) {
    for (size_t i = 0; i < n; i++) {
      if (online[i] && work[i] != nullptr) {
        work[i]->RunBatch(dt, &effective[i], &slices[i], 1);
      }
    }
  }
  RunMultiWorks(dt);

  // 4. Price: only the lanes whose frequency, busy fraction or activity
  // moved re-price (all online lanes after an epoch change); the package
  // total, uncore share and thermal targets are rebuilt when any did.
  if (Reprice(/*all=*/power_epoch_ != control_epoch_)) {
    tick_stats_.repriced_ticks++;
  }

  // 5. Settle: counters advance for all lanes and the temperatures relax in
  // one pass; RAPL observes this tick's power.
  Settle(dt);
  rapl_.Update(last_package_power_w_, dt);

  // 6. Bookkeeping.
  package_energy_j_ += last_package_power_w_ * dt;
  now_ += dt;
  tick_stats_.full_ticks++;
}

bool Package::CanFastTick(Seconds dt) const {
  return plan_valid_ && hold_remaining_ > 0 && plan_epoch_ == control_epoch_ &&
         dt == plan_dt_ && !rapl_.enabled() &&
         thermal_.max_temp_c() < spec_.thermal.tj_max_c - kThermalHoldGuardC;
}

// PAPD_HOT
void Package::TickFast(Seconds dt) {
  const uint8_t* online = cores_.online.data();
  CoreWork* const* work = cores_.work.data();
  Mhz* effective = cores_.effective_mhz.data();
  WorkSlice* slices = cores_.slice.data();

  // Unsteady lanes run their work and are re-priced; held lanes replay the
  // plan-time slice, effective frequency and power.
  for (int idx : scratch_unsteady_) {
    const auto i = static_cast<size_t>(idx);
    if (online[i] && work[i] != nullptr) {
      work[i]->RunBatch(dt, &effective[i], &slices[i], 1);
    }
  }
  RunMultiWorks(dt);

  Watts total{held_power_sum_};
  int busy_cores = held_busy_cores_;
  for (int idx : scratch_unsteady_) {
    const auto i = static_cast<size_t>(idx);
    if (!online[i]) {
      // Offline members of a multi-core work; constant deep-C-state power.
      total += cores_.power_w[i];
      continue;
    }
    const Mhz f{effective[i]};
    if (f != cores_.volts_cache_mhz[i]) {
      cores_.volts_cache_mhz[i] = f;
      cores_.volts_cache_v[i] = power_model_.VoltsAt(f);
    }
    const Watts p = power_model_.CorePowerW(f, slices[i].busy_fraction,
                                            slices[i].activity,
                                            cores_.volts_cache_v[i]);
    cores_.power_w[i] = p;
    if (slices[i].busy_fraction > 0.05) {
      busy_cores++;
    }
    total += p;
  }

  const Watts uncore{power_model_.UncorePowerW(busy_cores)};
  total += uncore;

  // Hardware counters advance exactly every tick for every lane: multi-rate
  // defers only workload-internal accounting, never the counters MSR
  // readers and policy daemons observe.  The RAPL controller is disabled on
  // this path (CanFastTick); the thermal model still integrates every tick
  // so PROCHOT never lags a hold window.
  thermal_.SetPower(cores_.power_w, uncore);
  Settle(dt);

  last_package_power_w_ = total;
  last_uncore_power_w_ = uncore;
  package_energy_j_ += total * dt;
  now_ += dt;
  power_epoch_ = kStaleEpoch;  // Re-priced outside the full tick's memo.
  hold_remaining_--;
  held_pending_ticks_++;
  tick_stats_.fast_ticks++;
}

// PAPD_HOT
void Package::RebuildHoldPlan(Seconds dt) {
  plan_epoch_ = control_epoch_;
  plan_dt_ = dt;
  held_pending_ticks_ = 0;
  scratch_unsteady_.clear();
  held_power_sum_ = Watts{0.0};
  held_busy_cores_ = 0;
  const size_t n = cores_.size();
  int budget = max_hold_ticks_;
  bool any_held = false;
  for (size_t i = 0; i < n; i++) {
    int steady = 0;
    if (!cores_.online[i]) {
      // Offline lanes are constant by construction.
      steady = max_hold_ticks_;
    } else if (cores_.work[i] != nullptr) {
      steady = cores_.work[i]->SteadyTicks(dt);
    } else if (!multi_member_[i]) {
      // Idle online lane: constant slice and power until the control plane
      // changes (which invalidates the plan).
      steady = max_hold_ticks_;
    }
    // Multi-core work members stay unsteady: their coupled work runs every
    // tick and re-prices its lanes.
    if (steady >= kMinHoldTicks) {
      lane_held_[i] = 1;
      any_held = true;
      budget = std::min(budget, steady);
      held_power_sum_ += cores_.power_w[i];
      if (cores_.online[i] && cores_.slice[i].busy_fraction > 0.05) {
        held_busy_cores_++;
      }
    } else {
      lane_held_[i] = 0;
      scratch_unsteady_.push_back(static_cast<int>(i));
    }
  }
  plan_valid_ = any_held;
  hold_remaining_ = any_held ? budget : 0;
  rebuild_cooldown_ = any_held ? 0 : kMinHoldTicks;
  tick_stats_.plan_rebuilds++;
}

void Package::FlushSteadyWork() {
  if (held_pending_ticks_ == 0) {
    return;
  }
  const int pending = held_pending_ticks_;
  held_pending_ticks_ = 0;
  const size_t n = cores_.size();
  for (size_t i = 0; i < n; i++) {
    if (lane_held_[i] && cores_.online[i] && cores_.work[i] != nullptr) {
      cores_.work[i]->RunSteadyBatch(plan_dt_, pending, cores_.effective_mhz[i],
                                     &cores_.slice[i]);
      tick_stats_.work_syncs++;
    }
  }
}

}  // namespace papd
