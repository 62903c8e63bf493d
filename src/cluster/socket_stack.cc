#include "src/cluster/socket_stack.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/specsim/spec2017.h"

namespace papd {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashBytes(uint64_t* h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    *h = (*h ^ bytes[i]) * kFnvPrime;
  }
}

void HashDouble(uint64_t* h, double v) { HashBytes(h, &v, sizeof(v)); }
void HashU64(uint64_t* h, uint64_t v) { HashBytes(h, &v, sizeof(v)); }
void HashString(uint64_t* h, const std::string& s) {
  HashU64(h, s.size());
  HashBytes(h, s.data(), s.size());
}

}  // namespace

const char* RackArbiterKindName(RackArbiterKind kind) {
  switch (kind) {
    case RackArbiterKind::kShares:
      return "shares";
    case RackArbiterKind::kDemand:
      return "demand";
    case RackArbiterKind::kSloFeedback:
      return "slo-feedback";
  }
  return "?";
}

uint64_t HashSocketConfig(const RackSocketConfig& cfg) {
  uint64_t h = kFnvOffset;
  const PlatformSpec& p = cfg.platform;
  HashString(&h, p.name);
  HashU64(&h, static_cast<uint64_t>(p.num_cores));
  HashDouble(&h, p.min_mhz.value());
  HashDouble(&h, p.base_max_mhz.value());
  HashDouble(&h, p.turbo_max_mhz.value());
  HashDouble(&h, p.step_mhz.value());
  HashDouble(&h, p.tsc_mhz.value());
  HashDouble(&h, p.tdp_w.value());
  HashU64(&h, p.has_rapl_limit ? 1 : 0);
  HashDouble(&h, p.rapl_min_w.value());
  HashDouble(&h, p.rapl_max_w.value());
  HashU64(&h, static_cast<uint64_t>(p.max_simultaneous_pstates));
  HashU64(&h, p.has_per_core_power ? 1 : 0);
  HashU64(&h, p.turbo_ladder.size());
  for (const TurboStep& step : p.turbo_ladder) {
    HashU64(&h, static_cast<uint64_t>(step.max_active_cores));
    HashDouble(&h, step.mhz.value());
  }
  HashDouble(&h, p.avx_max_mhz_light.value());
  HashDouble(&h, p.avx_max_mhz_heavy.value());
  HashU64(&h, static_cast<uint64_t>(p.avx_light_cores));
  // The voltage curve's interior points are private; its endpoints plus the
  // platform name (presets are the only constructors in practice) pin it.
  HashDouble(&h, p.voltage.min_volts().value());
  HashDouble(&h, p.voltage.max_volts().value());
  HashDouble(&h, p.power.ceff_w_per_v2ghz);
  HashDouble(&h, p.power.leak_ref_w.value());
  HashDouble(&h, p.power.leak_ref_volts.value());
  HashDouble(&h, p.power.clock_gate_w.value());
  HashDouble(&h, p.power.cstate_idle_w.value());
  HashDouble(&h, p.power.uncore_base_w.value());
  HashDouble(&h, p.power.uncore_per_active_w.value());
  HashDouble(&h, p.thermal.ambient_c);
  HashDouble(&h, p.thermal.r_core_c_per_w);
  HashDouble(&h, p.thermal.spread_fraction);
  HashDouble(&h, p.thermal.tau_s.value());
  HashDouble(&h, p.thermal.tj_max_c);
  HashU64(&h, cfg.apps.size());
  for (const AppSetup& app : cfg.apps) {
    HashString(&h, app.profile);
    HashDouble(&h, app.shares);
    HashU64(&h, app.high_priority ? 1 : 0);
  }
  HashU64(&h, static_cast<uint64_t>(cfg.policy));
  HashDouble(&h, cfg.shares);
  HashDouble(&h, cfg.min_budget_w.value());
  HashDouble(&h, cfg.max_budget_w.value());
  HashU64(&h, cfg.seed);
  HashU64(&h, cfg.audit ? 1 : 0);
  HashU64(&h, cfg.use_baseline_ips ? 1 : 0);
  // Serving-socket fields: two sockets differing only in their arrival
  // process must never share a replica class.
  HashU64(&h, cfg.websearch ? 1 : 0);
  if (cfg.websearch) {
    const WebSearch::Params& wp = cfg.websearch_params;
    HashU64(&h, static_cast<uint64_t>(wp.users));
    HashDouble(&h, wp.think_mean_s.value());
    HashDouble(&h, wp.service_mcycles_mean);
    HashDouble(&h, wp.fixed_latency_s.value());
    HashDouble(&h, wp.ipc);
    HashDouble(&h, wp.activity);
    const WebSearch::OpenLoop& ol = wp.open_loop;
    HashU64(&h, ol.enabled ? 1 : 0);
    HashDouble(&h, ol.users);
    HashDouble(&h, ol.requests_per_user_per_day);
    HashU64(&h, static_cast<uint64_t>(ol.shape));
    HashDouble(&h, ol.diurnal_amplitude);
    HashDouble(&h, ol.diurnal_period_s.value());
    HashDouble(&h, ol.shape_phase_s.value());
    HashU64(&h, cfg.with_cpuburn ? 1 : 0);
    HashDouble(&h, cfg.websearch_shares);
    HashDouble(&h, cfg.cpuburn_shares);
  }
  return h;
}

Watts SocketFloorW(const RackSocketConfig& cfg) {
  if (cfg.min_budget_w > Watts{0.0}) {
    return cfg.min_budget_w;
  }
  return cfg.platform.has_rapl_limit ? cfg.platform.rapl_min_w : cfg.platform.tdp_w / 4.0;
}

Watts SocketCeilingW(const RackSocketConfig& cfg) {
  if (cfg.max_budget_w > Watts{0.0}) {
    return cfg.max_budget_w;
  }
  return cfg.platform.has_rapl_limit ? cfg.platform.rapl_max_w : cfg.platform.tdp_w;
}

void ValidateSocketBudgetBounds(const RackSocketConfig& cfg) {
  PAPD_CHECK_LE(SocketFloorW(cfg), SocketCeilingW(cfg))
      << " socket budget floor above ceiling (platform " << cfg.platform.name
      << "); fix min_budget_w/max_budget_w";
}

SocketStack::SocketStack(const RackSocketConfig& cfg, const DaemonConfig& daemon_cfg,
                         const FaultPlan& faults, Seconds tick_s, const TickOptions& tick)
    : config(cfg), pkg(cfg.platform), msr(&pkg), sim(&pkg, tick_s) {
  PAPD_CHECK_LE(static_cast<int>(cfg.apps.size()), cfg.platform.num_cores);
  pkg.SetTickPolicy(tick.policy, tick.max_hold_ticks);
  std::vector<ManagedApp> managed;
  if (cfg.websearch) {
    // Serving socket: websearch on all-but-one core, optionally a cpuburn
    // virus on the last core.
    PAPD_CHECK(cfg.apps.empty()) << " websearch sockets take no app mix";
    const int burn_cpu = cfg.platform.num_cores - 1;
    std::vector<int> ws_cores;
    for (int c = 0; c < burn_cpu; c++) {
      ws_cores.push_back(c);
    }
    websearch = std::make_unique<WebSearch>(ws_cores, cfg.websearch_params, cfg.seed);
    pkg.AttachMultiWork(websearch.get());
    const Ips ws_baseline = IpsAtMhz(cfg.platform.turbo_max_mhz, cfg.websearch_params.ipc);
    for (int c : ws_cores) {
      managed.push_back(ManagedApp{.name = "websearch",
                                   .cpu = c,
                                   .shares = cfg.websearch_shares,
                                   .high_priority = true,
                                   .baseline_ips = ws_baseline});
    }
    if (cfg.with_cpuburn) {
      procs.push_back(std::make_unique<Process>(GetProfile("cpuburn"), cfg.seed + 7));
      pkg.AttachWork(burn_cpu, procs.back().get());
      managed.push_back(ManagedApp{
          .name = "cpuburn",
          .cpu = burn_cpu,
          .shares = cfg.cpuburn_shares,
          .high_priority = false,
          .baseline_ips = cfg.use_baseline_ips ? Standalone(cfg.platform, "cpuburn").ips
                                               : ws_baseline,
      });
    } else {
      pkg.SetRequestedMhz(burn_cpu, cfg.platform.min_mhz);
    }
  } else {
    for (size_t i = 0; i < cfg.apps.size(); i++) {
      const AppSetup& setup = cfg.apps[i];
      procs.push_back(
          std::make_unique<Process>(GetProfile(setup.profile), cfg.seed + 1000 * i));
      pkg.AttachWork(static_cast<int>(i), procs.back().get());
      managed.push_back(ManagedApp{
          .name = setup.profile,
          .cpu = static_cast<int>(i),
          .shares = setup.shares,
          .high_priority = setup.high_priority,
          .baseline_ips = cfg.use_baseline_ips
                              ? Standalone(cfg.platform, setup.profile).ips
                              : Ips{0.0},
      });
    }
    // Unmanaged (empty) cores idle at the minimum P-state.
    for (int c = static_cast<int>(cfg.apps.size()); c < pkg.num_cores(); c++) {
      pkg.SetRequestedMhz(c, cfg.platform.min_mhz);
    }
  }

  if (faults.Any()) {
    msr.EnableFaults(faults);
  }
  daemon = std::make_unique<PowerDaemon>(&msr, std::move(managed), daemon_cfg);
  daemon->Start();
  tick_opts_ = tick;
  hold_mode = tick.socket_hold && tick.policy == TickPolicy::kMultiRate;
  if (hold_mode) {
    // The daemon is driven explicitly from AdvancePeriod (so quiescent
    // periods can skip it); nothing is registered with the simulator.
    last_limit_w_ = daemon->config().power_limit_w;
    held_epoch_ = pkg.control_epoch();
  } else if (daemon_cfg.kind != PolicyKind::kStatic) {
    sim.AddPeriodic(daemon_cfg.period_s, [this](Seconds) { daemon->Step(); });
  }
}

// PAPD_HOT
void SocketStack::AdvancePeriod(Seconds period_s) {
  const Joules start_j{pkg.package_energy_j()};
  const Seconds start_s{pkg.now()};
  if (hold_mode) {
    sim.RunCoarse(period_s);
  } else {
    sim.Run(period_s);
  }
  // Divide the energy delta by the time the simulator *actually* advanced:
  // when period_s is not an integer multiple of the tick, Run() overshoots
  // by a fraction of a tick, and dividing by the nominal period would bias
  // every measurement high (feeding a too-hot demand claim to the arbiter).
  const Seconds elapsed_s{pkg.now() - start_s};
  last_measured_w = (pkg.package_energy_j() - start_j) / elapsed_s;
  if (hold_mode) {
    StepDaemonHeld();
  }
}

// PAPD_HOT
void SocketStack::StepDaemonHeld() {
  // The hold predicate, checked against the state captured when the hold
  // engaged: unchanged grant (the arbiter writes config().power_limit_w
  // between periods), no control-plane writes (epoch), degradation ladder
  // nominal, no fault plan armed, and measured power inside the band.
  const bool faults_armed = msr.faults() != nullptr;
  if (daemon_held) {
    const bool state_ok = !faults_armed &&
                          daemon->degradation_state() == DegradationState::kNominal &&
                          daemon->config().power_limit_w == last_limit_w_ &&
                          pkg.control_epoch() == held_epoch_;
    const double band = tick_opts_.hold_power_band;
    const bool in_band =
        std::abs((last_measured_w - held_power_w_).value()) <=
        band * std::abs(held_power_w_.value());
    const bool recheck_due =
        tick_opts_.hold_recheck_periods > 0 &&
        ++held_periods_since_recheck_ >= tick_opts_.hold_recheck_periods;
    if (state_ok && in_band && !recheck_due) {
      daemon_steps_skipped++;
      return;
    }
    daemon_held = false;
    quiet_streak_ = 0;
    if (!state_ok || !in_band) {
      hold_resyncs++;
    }
  }

  // Live step, instrumented for quiescence: a step is quiet when it wrote
  // nothing to the package (the daemon skips unchanged reprogramming, so
  // the epoch only moves on real control actions) and the ladder stayed
  // nominal with the grant unchanged since the previous period.
  const uint64_t pre_epoch = pkg.control_epoch();
  const Watts limit{daemon->config().power_limit_w};
  daemon->Step();
  const bool quiet = !faults_armed && pkg.control_epoch() == pre_epoch &&
                     daemon->degradation_state() == DegradationState::kNominal &&
                     limit == last_limit_w_;
  last_limit_w_ = limit;
  quiet_streak_ = quiet ? quiet_streak_ + 1 : 0;
  if (quiet_streak_ >= kQuietPeriodsToHold) {
    daemon_held = true;
    held_epoch_ = pkg.control_epoch();
    held_power_w_ = last_measured_w;
    held_periods_since_recheck_ = 0;
  }
}

}  // namespace papd
