#include "src/cluster/socket_stack.h"

#include <utility>

#include "src/common/check.h"
#include "src/specsim/spec2017.h"

namespace papd {

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
  pkg.SetTickPolicy(tick.policy, TickOptions::max_hold_ticks);
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
    const bool in_band = Abs(last_measured_w - held_power_w_) <=
                         TickOptions::hold_power_band * Abs(held_power_w_);
    if (state_ok && in_band) {
      daemon_steps_skipped++;
      return;
    }
    daemon_held = false;
    quiet_streak_ = 0;
    hold_resyncs++;
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
  }
}

}  // namespace papd
