// papd_bench: one iteration of one benchmark workload, reported as one JSON
// line on stdout.
//
//   papd_bench --workload paper_sweep|serving_fleet|cluster_131k
//              [--seed N] [--traced] [--smoke]
//
// The untraced mode drives the workload through the libraries' public entry
// points (RunScenarios / RunWebsearches, Fleet, BudgetTree) and times only
// the phases around them.  The traced mode runs the same workload at the
// same seed and size, but times each layer by wrapping calls to that
// layer's public functions from this file:
//
//   - paper_sweep: every scenario and websearch run is rebuilt from public
//     parts (ToDaemonConfig, Package, MsrFile, PowerDaemon,
//     Simulator::AddPeriodic) with forwarding work wrappers, so the
//     simulator, the workloads and the daemon are timed separately;
//   - serving_fleet / cluster_131k: the Fleet / BudgetTree runs untouched
//     (its Step, Collect and arbiter are timed from outside), and every live
//     leaf is replayed next to it by a shadow socket rebuilt from the leaf's
//     SocketStack::config and fed the grants read back through
//     BudgetTree::grant_w() after each step.  The shadow's layer times stand
//     in for the leaf simulation inside the tree's step.
//
// Both modes hash the simulated outputs into an FNV-1a fingerprint; the
// traced fingerprint takes the leaf-level values from the replay, so equal
// fingerprints show the traced run measured the same program.  run.py
// compares fingerprints, aggregates iterations and prints the metrics.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "perfbench/alloc_counter.h"
#include "src/cluster/budget_tree.h"
#include "src/cluster/fleet.h"
#include "src/cluster/socket_stack.h"
#include "src/common/thread_pool.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/batch.h"
#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"
#include "src/msr/msr.h"
#include "src/platform/platform_spec.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/websearch.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Pool width of every workload: one thread keeps run-to-run spread inside
// the benchmark's bounds on a small shared host.
constexpr int kPoolWidth = 1;

// Largest |layer self-time sum - host time| / host time a traced run may
// show before its attribution is rejected.  The leaf replay of the tree
// workloads runs about 10% slower than the leaves it stands in for (one more
// virtual call per work call); a replay of the wrong leaves is off by far
// more.
constexpr double kLayerSumTolerance = 0.20;

// The cap-invariant slack the tree may show at any arbitration.
constexpr double kMaxGrantOverrunW = 1e-6;

// Seeds of individual scenarios / fleets / trees, derived from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  template <class Tag>
  void Add(Quantity<Tag> q) {
    Add(q.value());
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// --- Traced-run accounting ----------------------------------------------------

// Host time accumulated per layer over one traced iteration.  Everything is
// single-threaded (pool width 1), so plain doubles suffice.
struct Trace {
  double sim_s = 0.0;        // Simulator::Run / RunCoarse / FlushSteadyWork spans.
  double callbacks_s = 0.0;  // Periodic callbacks fired inside those spans.
  double daemon_s = 0.0;     // PowerDaemon::Step, inside or outside the spans.
  double process_s = 0.0;    // CoreWork calls (sampled; see CallTimer).
  double websearch_s = 0.0;  // MultiCoreWork calls (sampled).

  uint64_t daemon_steps = 0;
  double redistribute_s = 0.0;
  uint64_t reprogram_skips = 0;
  uint64_t full_ticks = 0;
  uint64_t fast_ticks = 0;
  uint64_t batched_ticks = 0;
  uint64_t websearch_requests = 0;

  void AddDaemon(const PowerDaemon& daemon) {
    for (const obs::MetricValue& m : daemon.metrics().Export()) {
      if (m.name == "daemon.redistribute_latency_us") {
        daemon_steps += m.count;
        redistribute_s += m.value * 1e-6;
      }
    }
    reprogram_skips += static_cast<uint64_t>(daemon.fault_stats().reprogram_skips);
  }
  void AddTicks(const Package& pkg) {
    full_ticks += pkg.tick_stats().full_ticks;
    fast_ticks += pkg.tick_stats().fast_ticks;
    batched_ticks += pkg.tick_stats().batched_ticks;
  }
  // Self time of the tick engine: simulator spans minus what they called.
  double TickSelfS() const { return sim_s - callbacks_s - process_s - websearch_s; }
};

// Adds the wall time of its scope to *acc.
class Span {
 public:
  explicit Span(double* acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() { *acc_ += SecondsSince(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* acc_;
  Clock::time_point t0_;
};

// A cheap cycle counter: the time-stamp counter where there is one.
uint64_t ReadCycles() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(Clock::now().time_since_epoch().count());
#endif
}

// Host seconds per ReadCycles() unit, measured against steady_clock over
// 20 ms at start-up.
double SecondsPerCycle() {
  static const double seconds_per_cycle = [] {
    const Clock::time_point t0 = Clock::now();
    const uint64_t c0 = ReadCycles();
    while (SecondsSince(t0) < 0.02) {
    }
    return SecondsSince(t0) / static_cast<double>(ReadCycles() - c0);
  }();
  return seconds_per_cycle;
}

// Times calls to one work.  Only one call in kStride is timed, and its time
// scaled up, so the timing costs little next to the calls it measures; the
// stride is prime to the 1000-tick daemon period, so samples rotate through
// every tick phase.  A timed call reads the cycle counter three times
// and subtracts the first (empty) interval from the second, which removes
// the cost of the reads themselves in the context where they run.
class CallTimer {
 public:
  static constexpr int kStride = 61;

  explicit CallTimer(double* total_s) : total_s_(total_s) {}

  template <class F>
  void Sampled(F&& f) {
    if (--countdown_ != 0) {
      f();
      return;
    }
    countdown_ = kStride;
    const uint64_t c0 = ReadCycles();
    const uint64_t c1 = ReadCycles();
    f();
    const uint64_t c2 = ReadCycles();
    const double cycles = static_cast<double>(c2 - c1) - static_cast<double>(c1 - c0);
    *total_s_ += kStride * cycles * SecondsPerCycle();
  }

 private:
  double* total_s_;
  int countdown_ = kStride;
};

// Forwards every CoreWork entry point to `inner`, timing it.
class TimedWork : public CoreWork {
 public:
  TimedWork(CoreWork* inner, double* total_s) : inner_(inner), timer_(total_s) {}

  WorkSlice Run(Seconds dt, Mhz freq_mhz) override {
    WorkSlice s;
    timer_.Sampled([&] { s = inner_->Run(dt, freq_mhz); });
    return s;
  }
  void RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices, int n) override {
    timer_.Sampled([&] { inner_->RunBatch(dt, freqs_mhz, out_slices, n); });
  }
  bool UsesAvx() const override { return inner_->UsesAvx(); }
  int SteadyTicks(Seconds dt) const override { return inner_->SteadyTicks(dt); }
  void RunSteadyBatch(Seconds dt, int k, Mhz freq_mhz, WorkSlice* last_slice) override {
    timer_.Sampled([&] { inner_->RunSteadyBatch(dt, k, freq_mhz, last_slice); });
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  CoreWork* inner_;
  CallTimer timer_;
};

// Forwards every MultiCoreWork entry point to `inner`, timing it.
class TimedMultiWork : public MultiCoreWork {
 public:
  TimedMultiWork(MultiCoreWork* inner, double* total_s) : inner_(inner), timer_(total_s) {}

  const std::vector<int>& Cores() const override { return inner_->Cores(); }
  void RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices, size_t n) override {
    timer_.Sampled([&] { inner_->RunBatch(dt, freqs_mhz, out_slices, n); });
  }
  bool UsesAvx() const override { return inner_->UsesAvx(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  MultiCoreWork* inner_;
  CallTimer timer_;
};

// --- One iteration's outcome --------------------------------------------------

struct Outcome {
  Fingerprint fingerprint;
  double sim_socket_s = 0.0;  // Simulated socket-seconds advanced.
  double timed_host_s = 0.0;  // Host seconds of the timed phase: sum of chunks_s.
  // The timed phase cut into fixed units of work (one run, period or step),
  // so run.py can take each unit's median over iterations.
  std::vector<double> chunks_s;
  double setup_s = 0.0;
  std::vector<std::string> failures;
  std::map<std::string, double> quality;  // Simulated outputs fixed by the seed.
  std::map<std::string, double> layers;   // Traced runs only.
  std::string tick_kernel;

  void AddChunk(double seconds) {
    chunks_s.push_back(seconds);
    timed_host_s += seconds;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
  // Traced runs: record the layer self times and check that they account
  // for the host time of the measured program.
  void CheckLayerSum(double layer_sum_s, double host_s) {
    layers["trace.layer_sum_frac"] = host_s > 0.0 ? layer_sum_s / host_s : 0.0;
    Check(std::abs(layer_sum_s - host_s) <= kLayerSumTolerance * host_s,
          "layer self times do not sum to the host time");
  }
};

void AddPolicyAndCpusimLayers(const Trace& tr, Outcome* out) {
  const uint64_t ticks = tr.full_ticks + tr.fast_ticks;
  out->layers["cpusim.tick_s"] = tr.TickSelfS();
  out->layers["cpusim.fast_tick_frac"] =
      ticks > 0 ? static_cast<double>(tr.fast_ticks) / static_cast<double>(ticks) : 0.0;
  out->layers["cpusim.batched_ticks"] = static_cast<double>(tr.batched_ticks);
  out->layers["specsim.process_run_s"] = tr.process_s;
  out->layers["specsim.websearch_run_s"] = tr.websearch_s;
  out->layers["specsim.websearch_requests"] = static_cast<double>(tr.websearch_requests);
  out->layers["policy.daemon_step_s"] = tr.daemon_s;
  out->layers["policy.daemon_steps"] = static_cast<double>(tr.daemon_steps);
  out->layers["policy.redistribute_s"] = tr.redistribute_s;
  out->layers["policy.reprogram_skip_frac"] =
      tr.daemon_steps > 0
          ? static_cast<double>(tr.reprogram_skips) / static_cast<double>(tr.daemon_steps)
          : 0.0;
  for (const char* name : {"cpusim.tick_s", "specsim.process_run_s", "specsim.websearch_run_s",
                           "policy.daemon_step_s"}) {
    out->Check(out->layers[name] >= 0.0, std::string("negative self time for ") + name);
  }
}

// ============================================================================
// paper_sweep: the paper's single-socket experiments at paper-length windows.
// ============================================================================

struct PaperSweep {
  std::vector<ScenarioConfig> scenarios;
  std::vector<WebsearchConfig> websearches;
  // (platform, profile) pairs whose standalone baselines the runs read.
  std::vector<std::pair<PlatformSpec, std::string>> baselines;
};

PaperSweep BuildPaperSweep(uint64_t seed, bool smoke) {
  PaperSweep sweep;
  const Seconds warmup{smoke ? 2.0 : 20.0};
  const Seconds measure{smoke ? 10.0 : 120.0};
  uint64_t index = 0;
  const auto scenario = [&](const PlatformSpec& platform, const WorkloadMix& mix,
                            PolicyKind policy, double limit_w) {
    ScenarioConfig c{.platform = platform};
    c.apps = mix.apps;
    c.policy = policy;
    c.limit_w = Watts{limit_w};
    c.warmup_s = warmup;
    c.measure_s = measure;
    c.seed = DeriveSeed(seed, index++);
    return c;
  };
  // Smoke runs keep the first entry of every axis.
  const auto take = [smoke](const auto& v) {
    auto copy = v;
    if (smoke) {
      copy.resize(1);
    }
    return copy;
  };

  // Table 2 mixes x the four Skylake policies x two limits.
  const std::vector<PolicyKind> skylake_policies = {
      PolicyKind::kRaplOnly, PolicyKind::kPriority, PolicyKind::kFrequencyShares,
      PolicyKind::kPerformanceShares};
  for (const WorkloadMix& mix : take(SkylakePriorityMixes())) {
    for (PolicyKind policy : take(skylake_policies)) {
      for (double limit : take(std::vector<double>{50.0, 40.0})) {
        sweep.scenarios.push_back(scenario(SkylakeXeon4114(), mix, policy, limit));
      }
    }
  }
  // Ryzen mixes x the three Ryzen policies (no RAPL on Ryzen).
  const std::vector<PolicyKind> ryzen_policies = {
      PolicyKind::kPriority, PolicyKind::kFrequencyShares, PolicyKind::kPowerShares};
  for (const WorkloadMix& mix : take(RyzenPriorityMixes())) {
    for (PolicyKind policy : take(ryzen_policies)) {
      sweep.scenarios.push_back(scenario(Ryzen1700X(), mix, policy, 40.0));
    }
  }
  // Fault schedules, naive and hardened daemon.
  const WorkloadMix fault_mix = SkylakePriorityMixes()[2];
  const std::vector<FaultScenario> schedules = FaultSchedules(
      warmup + Seconds{4.0}, warmup + measure - Seconds{4.0}, DeriveSeed(seed, index++));
  for (const char* label : {"stale-burst", "wrap-storm", "mixed-storm"}) {
    for (const FaultScenario& s : schedules) {
      if (s.label != label) {
        continue;
      }
      for (bool hardened : {false, true}) {
        ScenarioConfig c =
            scenario(SkylakeXeon4114(), fault_mix, PolicyKind::kFrequencyShares, 55.0);
        c.run.daemon.faults = s.plan;
        c.run.daemon.degrade = hardened;
        sweep.scenarios.push_back(c);
      }
    }
    if (smoke) {
      break;
    }
  }
  // Closed-loop websearch + cpuburn (Figs 5/12) x three policies x two limits.
  for (PolicyKind policy :
       take(std::vector<PolicyKind>{PolicyKind::kRaplOnly, PolicyKind::kFrequencyShares,
                                    PolicyKind::kPriority})) {
    for (double limit : take(std::vector<double>{50.0, 40.0})) {
      WebsearchConfig w{.platform = SkylakeXeon4114()};
      w.policy = policy;
      w.limit_w = Watts{limit};
      w.warmup_s = warmup;
      w.measure_s = measure;
      w.seed = DeriveSeed(seed, index++);
      sweep.websearches.push_back(w);
    }
  }

  for (const ScenarioConfig& c : sweep.scenarios) {
    for (const AppSetup& app : c.apps) {
      sweep.baselines.emplace_back(c.platform, app.profile);
    }
  }
  sweep.baselines.emplace_back(SkylakeXeon4114(), "cpuburn");  // Websearch's power virus.
  std::vector<std::pair<PlatformSpec, std::string>> unique;
  for (const auto& b : sweep.baselines) {
    const bool seen = std::any_of(unique.begin(), unique.end(), [&](const auto& u) {
      return u.first.name == b.first.name && u.second == b.second;
    });
    if (!seen) {
      unique.push_back(b);
    }
  }
  sweep.baselines = std::move(unique);
  return sweep;
}

double SimulatedSocketS(const PaperSweep& sweep) {
  double s = 0.0;
  for (const ScenarioConfig& c : sweep.scenarios) {
    s += (c.warmup_s + c.measure_s).value();
  }
  for (const WebsearchConfig& w : sweep.websearches) {
    s += (w.warmup_s + w.measure_s).value();
  }
  return s;
}

void FingerprintScenario(const ScenarioResult& r, Fingerprint* fp) {
  fp->Add(r.avg_pkg_w);
  fp->Add(r.max_pkg_w);
  for (const AppResult& app : r.apps) {
    fp->Add(app.avg_ips);
    fp->Add(app.norm_perf);
  }
}

void FingerprintWebsearch(const WebsearchResult& r, Fingerprint* fp) {
  fp->Add(r.avg_pkg_w);
  fp->Add(r.p90_latency);
  fp->Add(static_cast<uint64_t>(r.completed_requests));
}

void CheckHardenedAudit(const PaperSweep& sweep, Outcome* out) {
  for (const ScenarioConfig& c : sweep.scenarios) {
    if (c.run.daemon.faults.Any() && c.run.daemon.degrade) {
      out->Check(c.run.daemon.audit, "auditor off in a hardened fault run");
    }
  }
}

double MeanNormPerf(const std::vector<ScenarioResult>& results) {
  double sum = 0.0;
  int n = 0;
  for (const ScenarioResult& r : results) {
    for (const AppResult& app : r.apps) {
      sum += app.norm_perf;
      n++;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

// Per-core counter snapshot bounding a measurement window (the harness's
// own window reduction, repeated here for the rebuilt runs).
struct CounterWindow {
  std::vector<double> aperf;
  std::vector<double> mperf;
  std::vector<double> instructions;
  std::vector<Joules> core_energy;
  Joules pkg_energy{0.0};
  Seconds t{0.0};

  static CounterWindow Take(const Package& pkg) {
    CounterWindow w;
    for (int i = 0; i < pkg.num_cores(); i++) {
      const Core& c = pkg.core(i);
      w.aperf.push_back(c.aperf_cycles());
      w.mperf.push_back(c.mperf_cycles());
      w.instructions.push_back(c.instructions_retired());
      w.core_energy.push_back(c.energy_j());
    }
    w.pkg_energy = pkg.package_energy_j();
    w.t = pkg.now();
    return w;
  }
};

// RunScenario rebuilt from public parts with every layer timed.
ScenarioResult TracedScenario(const ScenarioConfig& config, Trace* tr, Outcome* out) {
  Package pkg(config.platform);
  pkg.SetTickPolicy(config.run.tick.policy, config.run.tick.max_hold_ticks);
  MsrFile msr(&pkg);
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<std::unique_ptr<TimedWork>> works;
  std::vector<ManagedApp> managed;
  for (size_t i = 0; i < config.apps.size(); i++) {
    const AppSetup& setup = config.apps[i];
    procs.push_back(
        std::make_unique<Process>(GetProfile(setup.profile), config.seed + 1000 * i));
    works.push_back(std::make_unique<TimedWork>(procs.back().get(), &tr->process_s));
    pkg.AttachWork(static_cast<int>(i), works.back().get());
    managed.push_back(ManagedApp{
        .name = setup.profile,
        .cpu = static_cast<int>(i),
        .shares = setup.shares,
        .high_priority = setup.high_priority,
        .baseline_ips = Standalone(config.platform, setup.profile).ips,
    });
  }
  for (int c = static_cast<int>(config.apps.size()); c < pkg.num_cores(); c++) {
    pkg.SetRequestedMhz(c, config.platform.min_mhz);
  }
  if (config.run.daemon.faults.Any()) {
    msr.EnableFaults(config.run.daemon.faults);
  }
  PowerDaemon daemon(&msr, managed, ToDaemonConfig(config));
  daemon.Start();

  Simulator sim(&pkg);
  if (config.policy != PolicyKind::kStatic) {
    sim.AddPeriodic(config.daemon_period_s, [&](Seconds) {
      Span cb(&tr->callbacks_s);
      Span step(&tr->daemon_s);
      daemon.Step();
    });
  }
  Watts max_pkg_w{0.0};
  Joules prev_energy_j{0.0};
  Seconds prev_energy_t{0.0};
  sim.AddPeriodic(Seconds{1.0}, [&](Seconds now) {
    Span cb(&tr->callbacks_s);
    const Joules e{pkg.package_energy_j()};
    const Watts w{(e - prev_energy_j) / (now - prev_energy_t)};
    if (now > config.warmup_s) {
      max_pkg_w = std::max(max_pkg_w, w);
    }
    prev_energy_j = e;
    prev_energy_t = now;
  });

  {
    Span span(&tr->sim_s);
    sim.Run(config.warmup_s);
  }
  const CounterWindow start = CounterWindow::Take(pkg);
  {
    Span span(&tr->sim_s);
    sim.Run(config.measure_s);
    pkg.FlushSteadyWork();
  }
  const CounterWindow end = CounterWindow::Take(pkg);
  const Seconds dt{end.t - start.t};

  ScenarioResult result;
  result.measured_s = dt;
  result.energy_j = end.pkg_energy - start.pkg_energy;
  result.avg_pkg_w = result.energy_j / dt;
  result.max_pkg_w = max_pkg_w;
  for (size_t i = 0; i < config.apps.size(); i++) {
    const ManagedApp& app = managed[i];
    AppResult r;
    r.name = app.name;
    r.avg_ips = (end.instructions[i] - start.instructions[i]) / dt;
    r.norm_perf = app.baseline_ips > Ips{0.0} ? r.avg_ips / app.baseline_ips : 0.0;
    result.apps.push_back(r);
  }
  tr->AddDaemon(daemon);
  tr->AddTicks(pkg);
  if (config.run.daemon.faults.Any() && config.run.daemon.degrade) {
    out->Check(daemon.auditor() != nullptr, "auditor off in a hardened fault run");
  }
  return result;
}

// RunWebsearch rebuilt from public parts with every layer timed.
WebsearchResult TracedWebsearch(const WebsearchConfig& config, Trace* tr) {
  Package pkg(config.platform);
  pkg.SetTickPolicy(config.run.tick.policy, config.run.tick.max_hold_ticks);
  MsrFile msr(&pkg);

  const int burn_cpu = config.platform.num_cores - 1;
  std::vector<int> ws_cores;
  for (int c = 0; c < burn_cpu; c++) {
    ws_cores.push_back(c);
  }
  WebSearch::Params params;
  params.users = config.users;
  params.open_loop = config.open_loop;
  WebSearch websearch(ws_cores, params, config.seed);
  TimedMultiWork ws_work(&websearch, &tr->websearch_s);
  pkg.AttachMultiWork(&ws_work);

  std::unique_ptr<Process> burn;
  std::unique_ptr<TimedWork> burn_work;
  if (config.with_cpuburn) {
    burn = std::make_unique<Process>(GetProfile("cpuburn"), config.seed + 7);
    burn_work = std::make_unique<TimedWork>(burn.get(), &tr->process_s);
    pkg.AttachWork(burn_cpu, burn_work.get());
  } else {
    pkg.SetRequestedMhz(burn_cpu, config.platform.min_mhz);
  }

  std::vector<ManagedApp> managed;
  const Ips ws_baseline = IpsAtMhz(config.platform.turbo_max_mhz, params.ipc);
  for (int c : ws_cores) {
    managed.push_back(ManagedApp{.name = "websearch",
                                 .cpu = c,
                                 .shares = config.websearch_shares,
                                 .high_priority = true,
                                 .baseline_ips = ws_baseline});
  }
  if (config.with_cpuburn) {
    managed.push_back(ManagedApp{.name = "cpuburn",
                                 .cpu = burn_cpu,
                                 .shares = config.cpuburn_shares,
                                 .high_priority = false,
                                 .baseline_ips = Standalone(config.platform, "cpuburn").ips});
  }

  // RunWebsearch maps only these run options onto its daemon.
  DaemonConfig dcfg;
  dcfg.kind = config.policy;
  dcfg.power_limit_w = config.limit_w;
  dcfg.audit = config.run.daemon.audit;
  dcfg.use_hwp_hints = config.run.daemon.hwp_hints;
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  Simulator sim(&pkg);
  if (config.policy != PolicyKind::kStatic) {
    sim.AddPeriodic(dcfg.period_s, [&](Seconds) {
      Span cb(&tr->callbacks_s);
      Span step(&tr->daemon_s);
      daemon.Step();
    });
  }
  {
    Span span(&tr->sim_s);
    sim.Run(config.warmup_s);
  }
  websearch.ResetStats();
  const CounterWindow start = CounterWindow::Take(pkg);
  {
    Span span(&tr->sim_s);
    sim.Run(config.measure_s);
    pkg.FlushSteadyWork();
  }
  const CounterWindow end = CounterWindow::Take(pkg);
  const Seconds dt{end.t - start.t};

  WebsearchResult result;
  result.p90_latency = websearch.LatencyPercentile(90.0);
  result.completed_requests = websearch.completed_requests();
  result.energy_j = end.pkg_energy - start.pkg_energy;
  result.avg_pkg_w = result.energy_j / dt;
  tr->AddDaemon(daemon);
  tr->AddTicks(pkg);
  tr->websearch_requests += websearch.completed_requests();
  return result;
}

// Median and the highest percentile with at least ten samples beyond it.
void AddScenarioTimes(std::vector<double> times, Outcome* out) {
  std::sort(times.begin(), times.end());
  const size_t n = times.size();
  out->layers["experiments.scenario_runs"] = static_cast<double>(n);
  out->layers["experiments.scenario_p50_s"] = n > 0 ? times[n / 2] : 0.0;
  // With fewer than eleven runs no percentile has ten beyond it; the tail
  // falls back to the median.
  out->layers["experiments.scenario_tail_s"] =
      n > 10 ? times[n - 11] : out->layers["experiments.scenario_p50_s"];
}

Outcome RunPaperSweep(uint64_t seed, bool smoke, bool traced) {
  Outcome out;
  const Clock::time_point t_start = Clock::now();
  const PaperSweep sweep = BuildPaperSweep(seed, smoke);
  CheckHardenedAudit(sweep, &out);

  // Set-up: the standalone baseline cache fill.
  const Clock::time_point t_setup = Clock::now();
  for (const auto& [platform, profile] : sweep.baselines) {
    Standalone(platform, profile);
  }
  out.setup_s = SecondsSince(t_setup);

  std::vector<ScenarioResult> scenarios;
  std::vector<WebsearchResult> websearches;
  Trace tr;
  ThreadPool pool(kPoolWidth);
  for (const ScenarioConfig& c : sweep.scenarios) {
    const Clock::time_point t0 = Clock::now();
    scenarios.push_back(traced ? TracedScenario(c, &tr, &out) : RunScenarios({c}, &pool)[0]);
    out.AddChunk(SecondsSince(t0));
  }
  for (const WebsearchConfig& w : sweep.websearches) {
    const Clock::time_point t0 = Clock::now();
    websearches.push_back(traced ? TracedWebsearch(w, &tr) : RunWebsearches({w}, &pool)[0]);
    out.AddChunk(SecondsSince(t0));
  }
  out.sim_socket_s = SimulatedSocketS(sweep);

  for (const ScenarioResult& r : scenarios) {
    FingerprintScenario(r, &out.fingerprint);
  }
  for (const WebsearchResult& r : websearches) {
    FingerprintWebsearch(r, &out.fingerprint);
  }
  out.quality["mean_norm_perf"] = MeanNormPerf(scenarios);
  out.Check(out.quality["mean_norm_perf"] > 0.0, "mean_norm_perf is not positive");
  out.tick_kernel = Package(SkylakeXeon4114()).tick_kernel_name();

  if (traced) {
    const double host_s = SecondsSince(t_start);
    const double runs_s = out.timed_host_s;
    AddPolicyAndCpusimLayers(tr, &out);
    AddScenarioTimes(out.chunks_s, &out);
    out.layers["experiments.standalone_s"] = out.setup_s;
    // The harness's own share: run construction and reduction plus the
    // ground-truth power meter it registers on the simulator (every daemon
    // step here runs in a periodic callback).
    const double experiments_self = runs_s - tr.sim_s + (tr.callbacks_s - tr.daemon_s);
    out.layers["experiments.self_s"] = experiments_self;
    out.CheckLayerSum(out.setup_s + tr.TickSelfS() + tr.process_s + tr.websearch_s +
                          tr.daemon_s + experiments_self,
                      host_s);
  }
  return out;
}

// ============================================================================
// Shadow leaf for the traced fleet / cluster runs.
// ============================================================================

// One SocketStack rebuilt from public parts (same construction, the same
// AdvancePeriod and socket-hold state machine) with every layer timed.
class TracedSocket {
 public:
  TracedSocket(const RackSocketConfig& cfg, Seconds period_s, Seconds tick_s,
               Watts initial_budget_w, const TickOptions& tick, Trace* tr)
      : pkg_(cfg.platform), msr_(&pkg_), sim_(&pkg_, tick_s), tick_(tick), tr_(tr) {
    pkg_.SetTickPolicy(tick.policy, tick.max_hold_ticks);
    std::vector<ManagedApp> managed;
    if (cfg.websearch) {
      const int burn_cpu = cfg.platform.num_cores - 1;
      std::vector<int> ws_cores;
      for (int c = 0; c < burn_cpu; c++) {
        ws_cores.push_back(c);
      }
      websearch_ = std::make_unique<WebSearch>(ws_cores, cfg.websearch_params, cfg.seed);
      ws_work_ = std::make_unique<TimedMultiWork>(websearch_.get(), &tr->websearch_s);
      pkg_.AttachMultiWork(ws_work_.get());
      const Ips ws_baseline = IpsAtMhz(cfg.platform.turbo_max_mhz, cfg.websearch_params.ipc);
      for (int c : ws_cores) {
        managed.push_back(ManagedApp{.name = "websearch",
                                     .cpu = c,
                                     .shares = cfg.websearch_shares,
                                     .high_priority = true,
                                     .baseline_ips = ws_baseline});
      }
      if (cfg.with_cpuburn) {
        Attach(burn_cpu, GetProfile("cpuburn"), cfg.seed + 7);
        managed.push_back(ManagedApp{
            .name = "cpuburn",
            .cpu = burn_cpu,
            .shares = cfg.cpuburn_shares,
            .high_priority = false,
            .baseline_ips = cfg.use_baseline_ips ? Standalone(cfg.platform, "cpuburn").ips
                                                 : ws_baseline,
        });
      } else {
        pkg_.SetRequestedMhz(burn_cpu, cfg.platform.min_mhz);
      }
    } else {
      for (size_t i = 0; i < cfg.apps.size(); i++) {
        const AppSetup& setup = cfg.apps[i];
        Attach(static_cast<int>(i), GetProfile(setup.profile), cfg.seed + 1000 * i);
        managed.push_back(ManagedApp{
            .name = setup.profile,
            .cpu = static_cast<int>(i),
            .shares = setup.shares,
            .high_priority = setup.high_priority,
            .baseline_ips = cfg.use_baseline_ips ? Standalone(cfg.platform, setup.profile).ips
                                                 : Ips{0.0},
        });
      }
      for (int c = static_cast<int>(cfg.apps.size()); c < pkg_.num_cores(); c++) {
        pkg_.SetRequestedMhz(c, cfg.platform.min_mhz);
      }
    }

    DaemonConfig dcfg;
    dcfg.kind = cfg.policy;
    dcfg.power_limit_w = initial_budget_w;
    dcfg.period_s = period_s;
    dcfg.audit = cfg.audit;
    daemon_ = std::make_unique<PowerDaemon>(&msr_, std::move(managed), dcfg);
    daemon_->Start();
    hold_mode_ = tick.socket_hold && tick.policy == TickPolicy::kMultiRate;
    if (hold_mode_) {
      last_limit_w_ = daemon_->config().power_limit_w;
      held_epoch_ = pkg_.control_epoch();
    } else {
      sim_.AddPeriodic(period_s, [this](Seconds) {
        Span cb(&tr_->callbacks_s);
        StepDaemon();
      });
    }
  }

  TracedSocket(const TracedSocket&) = delete;
  TracedSocket& operator=(const TracedSocket&) = delete;

  void AdvancePeriod(Seconds period_s) {
    const Joules start_j{pkg_.package_energy_j()};
    const Seconds start_s{pkg_.now()};
    {
      Span span(&tr_->sim_s);
      if (hold_mode_) {
        sim_.RunCoarse(period_s);
      } else {
        sim_.Run(period_s);
      }
    }
    const Seconds elapsed_s{pkg_.now() - start_s};
    last_measured_w_ = (pkg_.package_energy_j() - start_j) / elapsed_s;
    if (hold_mode_) {
      StepDaemonHeld();
    }
  }

  PowerDaemon& daemon() { return *daemon_; }
  WebSearch* websearch() { return websearch_.get(); }
  const Package& pkg() const { return pkg_; }
  Watts last_measured_w() const { return last_measured_w_; }
  uint64_t daemon_steps_skipped() const { return daemon_steps_skipped_; }

 private:
  void Attach(int core, const WorkloadProfile& profile, uint64_t seed) {
    procs_.push_back(std::make_unique<Process>(profile, seed));
    works_.push_back(std::make_unique<TimedWork>(procs_.back().get(), &tr_->process_s));
    pkg_.AttachWork(core, works_.back().get());
  }

  void StepDaemon() {
    Span span(&tr_->daemon_s);
    daemon_->Step();
  }

  // SocketStack::StepDaemonHeld, step for step.
  void StepDaemonHeld() {
    const bool faults_armed = msr_.faults() != nullptr;
    if (daemon_held_) {
      const bool state_ok = !faults_armed &&
                            daemon_->degradation_state() == DegradationState::kNominal &&
                            daemon_->config().power_limit_w == last_limit_w_ &&
                            pkg_.control_epoch() == held_epoch_;
      const bool in_band = std::abs((last_measured_w_ - held_power_w_).value()) <=
                           tick_.hold_power_band * std::abs(held_power_w_.value());
      const bool recheck_due = tick_.hold_recheck_periods > 0 &&
                               ++held_periods_since_recheck_ >= tick_.hold_recheck_periods;
      if (state_ok && in_band && !recheck_due) {
        daemon_steps_skipped_++;
        return;
      }
      daemon_held_ = false;
      quiet_streak_ = 0;
    }
    const uint64_t pre_epoch = pkg_.control_epoch();
    const Watts limit{daemon_->config().power_limit_w};
    StepDaemon();
    const bool quiet = !faults_armed && pkg_.control_epoch() == pre_epoch &&
                       daemon_->degradation_state() == DegradationState::kNominal &&
                       limit == last_limit_w_;
    last_limit_w_ = limit;
    quiet_streak_ = quiet ? quiet_streak_ + 1 : 0;
    if (quiet_streak_ >= SocketStack::kQuietPeriodsToHold) {
      daemon_held_ = true;
      held_epoch_ = pkg_.control_epoch();
      held_power_w_ = last_measured_w_;
      held_periods_since_recheck_ = 0;
    }
  }

  Package pkg_;
  MsrFile msr_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<std::unique_ptr<TimedWork>> works_;
  std::unique_ptr<WebSearch> websearch_;
  std::unique_ptr<TimedMultiWork> ws_work_;
  std::unique_ptr<PowerDaemon> daemon_;
  Simulator sim_;
  TickOptions tick_;
  Trace* tr_;
  Watts last_measured_w_{0.0};

  bool hold_mode_ = false;
  bool daemon_held_ = false;
  uint64_t daemon_steps_skipped_ = 0;
  int quiet_streak_ = 0;
  uint64_t held_epoch_ = 0;
  Watts last_limit_w_{0.0};
  Watts held_power_w_{0.0};
  int held_periods_since_recheck_ = 0;
};

// Replays a set of live leaves next to a tree, feeding them its grants.
class ShadowLeaves {
 public:
  ShadowLeaves(BudgetTree& tree, const std::vector<int>& leaves, const TickOptions& tick,
               Seconds period_s, Seconds tick_s, Trace* tr)
      : tree_(tree), leaves_(leaves), period_s_(period_s) {
    Span span(&wall_s_);
    for (int leaf : leaves_) {
      sockets_.push_back(std::make_unique<TracedSocket>(tree.stack(leaf).config, period_s,
                                                        tick_s, tree.grant_w(leaf), tick, tr));
    }
  }

  // One period under the grants in force, then the grants the tree's last
  // arbitration set (BudgetTree re-applies every grant after every step).
  void Step() {
    Span span(&wall_s_);
    for (size_t i = 0; i < sockets_.size(); i++) {
      Span leaf(&advance_s_);
      sockets_[i]->AdvancePeriod(period_s_);
      sockets_[i]->daemon().SetPowerLimit(tree_.grant_w(leaves_[i]));
    }
  }

  TracedSocket& socket(size_t i) { return *sockets_[i]; }
  size_t size() const { return sockets_.size(); }
  // Host time spent on the replay, which the traced host time excludes.
  double wall_s() const { return wall_s_; }
  // The replayed leaf simulation alone (the tree's leaf-advance stand-in).
  double advance_s() const { return advance_s_; }

 private:
  BudgetTree& tree_;
  std::vector<int> leaves_;
  Seconds period_s_;
  std::vector<std::unique_ptr<TracedSocket>> sockets_;
  double wall_s_ = 0.0;
  double advance_s_ = 0.0;
};

void AddShadowCounters(ShadowLeaves& shadow, Trace* tr) {
  for (size_t i = 0; i < shadow.size(); i++) {
    tr->AddDaemon(shadow.socket(i).daemon());
    tr->AddTicks(shadow.socket(i).pkg());
    if (shadow.socket(i).websearch() != nullptr) {
      tr->websearch_requests += shadow.socket(i).websearch()->completed_requests();
    }
  }
}

// ============================================================================
// serving_fleet: 256 open-loop websearch sockets under SLO feedback.
// ============================================================================

Outcome RunServingFleet(uint64_t seed, bool smoke, bool traced) {
  Outcome out;
  const Clock::time_point t_start = Clock::now();
  FleetConfig cfg;
  cfg.arbiter = RackArbiterKind::kSloFeedback;
  cfg.seed = DeriveSeed(seed, 0);
  if (smoke) {
    cfg.rows = 2;
    cfg.racks_per_row = 2;
    cfg.sockets_per_rack = 2;
    cfg.users = 1e8 * 8.0 / 256.0;  // The default per-socket load.
  }
  const int warmup = smoke ? 2 : 10;
  const int measured = smoke ? 3 : 50;

  const Clock::time_point t_setup = Clock::now();
  Fleet fleet(cfg);
  out.setup_s = SecondsSince(t_setup);
  const int sockets = fleet.num_sockets();
  BudgetTree& tree = fleet.tree();

  Trace tr;
  std::unique_ptr<ShadowLeaves> shadow;
  if (traced) {
    shadow = std::make_unique<ShadowLeaves>(tree, fleet.leaf_nodes(), cfg.tick,
                                            cfg.control_period_s, cfg.tick_s, &tr);
  }

  double step_s = 0.0;
  double arbitrate_s = 0.0;
  for (int p = 0; p < warmup + measured; p++) {
    const Clock::time_point t_chunk = Clock::now();
    const double replay_before_s = traced ? shadow->wall_s() : 0.0;
    if (p == warmup) {
      fleet.ResetStats();
      for (size_t i = 0; traced && i < shadow->size(); i++) {
        shadow->socket(i).websearch()->ResetStats();
      }
    }
    {
      Span span(&step_s);
      fleet.Step(nullptr);
    }
    arbitrate_s += tree.last_arbitrate_wall_s().value();
    if (traced) {
      shadow->Step();
    }
    out.Check(tree.max_grant_overrun_w().value() <= kMaxGrantOverrunW,
              "cap-invariant slack above 1e-6 W");
    out.fingerprint.Add(tree.grant_w(0));
    out.fingerprint.Add(tree.measured_w(0));
    for (int s = 0; s < sockets; s++) {
      out.fingerprint.Add(traced ? shadow->socket(static_cast<size_t>(s)).last_measured_w()
                                 : tree.measured_w(fleet.leaf_nodes()[static_cast<size_t>(s)]));
    }
    out.AddChunk(SecondsSince(t_chunk) - (traced ? shadow->wall_s() - replay_before_s : 0.0));
  }
  const Clock::time_point t_collect = Clock::now();
  const FleetResult result = fleet.Collect();
  const double collect_s = SecondsSince(t_collect);
  out.AddChunk(collect_s);
  out.sim_socket_s =
      static_cast<double>(sockets) * (warmup + measured) * cfg.control_period_s.value();

  out.Check(result.max_grant_overrun_w.value() <= kMaxGrantOverrunW,
            "cap-invariant slack above 1e-6 W");
  size_t latency_samples = 0;
  for (int s = 0; s < sockets; s++) {
    const FleetSocketResult& sr = result.sockets[static_cast<size_t>(s)];
    if (traced) {
      WebSearch& ws = *shadow->socket(static_cast<size_t>(s)).websearch();
      out.fingerprint.Add(static_cast<uint64_t>(ws.completed_requests()));
      out.fingerprint.Add(ws.LatencyPercentile(90.0));
    } else {
      out.fingerprint.Add(static_cast<uint64_t>(sr.completed));
      out.fingerprint.Add(sr.p90);
    }
    out.fingerprint.Add(static_cast<uint64_t>(sr.slo_violation_periods));
    latency_samples += tree.stack(sr.node).websearch->latencies().size();
  }
  const double slo_pct = 100.0 * static_cast<double>(result.total_slo_violations) /
                         (static_cast<double>(sockets) * measured);
  out.quality["slo_violation_pct"] = slo_pct;
  out.tick_kernel = tree.package(fleet.leaf_nodes().front()).tick_kernel_name();

  if (traced) {
    // The host time of the measured program excludes the replay.
    const double host_s = SecondsSince(t_start) - shadow->wall_s();
    AddShadowCounters(*shadow, &tr);
    AddPolicyAndCpusimLayers(tr, &out);
    const double leaf_s = shadow->advance_s();
    out.layers["cluster.tree_step_s"] = leaf_s + arbitrate_s;
    out.layers["cluster.arbitrate_s"] = arbitrate_s;
    out.layers["cluster.arbitrate_us_per_node"] =
        1e6 * arbitrate_s / (warmup + measured) / tree.num_nodes();
    out.layers["cluster.leaf_advance_s"] = leaf_s;
    out.layers["cluster.replica_hit_rate"] = tree.replica_hit_rate();
    out.layers["cluster.live_leaves"] = tree.num_live_leaves();
    out.layers["fleet.step_s"] = step_s;
    out.layers["fleet.collect_s"] = collect_s;
    const double window_s = step_s - leaf_s - arbitrate_s;
    out.layers["fleet.window_s"] = window_s;
    out.layers["fleet.latency_samples"] = static_cast<double>(latency_samples);
    out.Check(window_s >= -kLayerSumTolerance * step_s,
              "leaf replay exceeds the fleet step it stands in for");
    out.CheckLayerSum(out.setup_s + tr.TickSelfS() + tr.process_s + tr.websearch_s +
                          tr.daemon_s + arbitrate_s + window_s + collect_s,
                      host_s);
  }
  return out;
}

// ============================================================================
// cluster_131k: 1024 identical 128-core sockets under a 1093-node tree.
// ============================================================================

Outcome RunCluster131k(uint64_t seed, bool smoke, bool traced) {
  Outcome out;
  const Clock::time_point t_start = Clock::now();
  const int rows = smoke ? 2 : 4;
  const int racks = smoke ? 2 : 16;
  const int sockets_per_rack = smoke ? 2 : 16;
  const int warmup = 12;
  const int measured = smoke ? 4 : 400;

  const Clock::time_point t_setup = Clock::now();
  RackSocketConfig proto{.platform = ManyCoreEpyc128()};
  proto.apps = ManyCoreSpreadMix(proto.platform.num_cores, /*rotate=*/0).apps;
  proto.policy = PolicyKind::kFrequencyShares;
  proto.seed = DeriveSeed(seed, 0);
  proto.use_baseline_ips = false;
  const int leaves = rows * racks * sockets_per_rack;
  const Watts floor = SocketFloorW(proto);
  const Watts ceiling = SocketCeilingW(proto);
  const Watts budget{(floor + (ceiling - floor) * 0.6) * static_cast<double>(leaves)};
  // Identical seeds under the shares arbiter: one replica class, and every
  // socket daemon reaches steady-state hold.
  BudgetTreeConfig cfg =
      MakeUniformCluster(rows, racks, sockets_per_rack, proto, budget, /*decorrelate_seeds=*/false);
  cfg.arbiter = RackArbiterKind::kShares;
  cfg.tick.policy = TickPolicy::kMultiRate;
  cfg.tick.socket_hold = true;
  cfg.tick.memoize_replicas = true;
  cfg.record_history = false;
  BudgetTree tree(cfg);
  out.setup_s = SecondsSince(t_setup);

  int first_leaf = 0;  // The representative of the single replica class.
  while (!tree.is_leaf(first_leaf)) {
    first_leaf++;
  }
  out.Check(tree.stack(first_leaf).daemon->auditor() != nullptr, "leaf auditor is off");

  Trace tr;
  std::unique_ptr<ShadowLeaves> shadow;
  if (traced) {
    out.Check(tree.num_replica_classes() == 1 && tree.num_live_leaves() == 1,
              "replay expects a single live leaf");
    shadow = std::make_unique<ShadowLeaves>(tree, std::vector<int>{first_leaf}, cfg.tick,
                                            cfg.control_period_s, cfg.tick_s, &tr);
  }

  double tree_step_s = 0.0;
  double arbitrate_s = 0.0;
  long steady_allocs = 0;
  for (int s = 0; s < warmup + measured; s++) {
    const Clock::time_point t_chunk = Clock::now();
    const double replay_before_s = traced ? shadow->wall_s() : 0.0;
    const long allocs_before = papd_bench::AllocationCount();
    {
      Span span(&tree_step_s);
      tree.Step(nullptr);
    }
    if (s >= warmup) {
      steady_allocs += papd_bench::AllocationCount() - allocs_before;
    }
    arbitrate_s += tree.last_arbitrate_wall_s().value();
    if (traced) {
      shadow->Step();
    }
    out.Check(tree.max_grant_overrun_w().value() <= kMaxGrantOverrunW,
              "cap-invariant slack above 1e-6 W");
    out.fingerprint.Add(tree.grant_w(0));
    out.fingerprint.Add(tree.measured_w(0));
    out.fingerprint.Add(traced ? shadow->socket(0).last_measured_w()
                               : tree.measured_w(first_leaf));
    out.AddChunk(SecondsSince(t_chunk) - (traced ? shadow->wall_s() - replay_before_s : 0.0));
  }
  out.sim_socket_s = static_cast<double>(leaves) * (warmup + measured) *
                     cfg.control_period_s.value();
  if (!traced) {
    out.Check(steady_allocs == 0, "steady tree steps allocated " +
                                      std::to_string(steady_allocs) + " times");
  }
  out.tick_kernel = tree.package(first_leaf).tick_kernel_name();

  if (traced) {
    const double host_s = SecondsSince(t_start) - shadow->wall_s();
    AddShadowCounters(*shadow, &tr);
    AddPolicyAndCpusimLayers(tr, &out);
    const int live = tree.num_live_leaves();
    out.Check(live == 1, "a replica materialized during the run");
    out.layers["cluster.tree_step_s"] = tree_step_s;
    out.layers["cluster.arbitrate_s"] = arbitrate_s;
    out.layers["cluster.arbitrate_us_per_node"] =
        1e6 * arbitrate_s / (warmup + measured) / tree.num_nodes();
    out.layers["cluster.leaf_advance_s"] = tree_step_s - arbitrate_s;
    out.layers["cluster.replica_hit_rate"] = tree.replica_hit_rate();
    out.layers["cluster.live_leaves"] = live;
    out.layers["cluster.daemon_skip_frac"] =
        static_cast<double>(tree.stack(first_leaf).daemon_steps_skipped) /
        (static_cast<double>(live) * (warmup + measured));
    out.Check(shadow->socket(0).daemon_steps_skipped() ==
                  tree.stack(first_leaf).daemon_steps_skipped,
              "replayed leaf skipped a different number of daemon steps");
    // The replayed leaf's layers stand in for the tree's leaf advance; the
    // sum against the tree's own step time checks that substitution.
    out.CheckLayerSum(out.setup_s + tr.TickSelfS() + tr.process_s + tr.websearch_s +
                          tr.daemon_s + arbitrate_s + (host_s - out.setup_s - tree_step_s),
                      host_s);
  }
  return out;
}

// ============================================================================

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

void PrintNumberMap(const std::map<std::string, double>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s", first ? "" : ", ");
    PrintJsonString(name);
    std::printf(": %.17g", value);
    first = false;
  }
  std::printf("}");
}

#ifndef PAPD_BENCH_BUILD_TYPE
#define PAPD_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PAPD_BENCH_CXX_FLAGS
#define PAPD_BENCH_CXX_FLAGS "unknown"
#endif

// This process's resident-set high-water mark.  VmHWM, not ru_maxrss: the
// latter keeps the parent's high-water mark across fork and exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: papd_bench --workload paper_sweep|serving_fleet|cluster_131k "
               "[--seed N] [--traced] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 42;
  bool traced = false;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') {
        return Usage();
      }
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }

  if (traced) {
    SecondsPerCycle();  // Calibrate before anything is timed.
  }
  Outcome out;
  if (workload == "paper_sweep") {
    out = RunPaperSweep(seed, smoke, traced);
  } else if (workload == "serving_fleet") {
    out = RunServingFleet(seed, smoke, traced);
  } else if (workload == "cluster_131k") {
    out = RunCluster131k(seed, smoke, traced);
  } else {
    return Usage();
  }
  const double peak_rss_mb = PeakRssMb();

  std::printf("{\"workload\": ");
  PrintJsonString(workload);
  std::printf(", \"traced\": %s, \"seed\": %" PRIu64 ", \"fingerprint\": ", traced ? "true" : "false",
              seed);
  PrintJsonString(out.fingerprint.Hex());
  std::printf(", \"sim_socket_s\": %.17g, \"timed_host_s\": %.17g, \"setup_s\": %.17g",
              out.sim_socket_s, out.timed_host_s, out.setup_s);
  std::printf(", \"peak_rss_mb\": %.17g, \"chunks_s\": [", peak_rss_mb);
  for (size_t i = 0; i < out.chunks_s.size(); i++) {
    std::printf("%s%.9g", i > 0 ? ", " : "", out.chunks_s[i]);
  }
  std::printf("], \"failures\": [");
  for (size_t i = 0; i < out.failures.size(); i++) {
    std::printf("%s", i > 0 ? ", " : "");
    PrintJsonString(out.failures[i]);
  }
  std::printf("], \"quality\": ");
  PrintNumberMap(out.quality);
  std::printf(", \"layers\": ");
  PrintNumberMap(out.layers);
  std::printf(", \"manifest\": {\"compiler\": ");
  PrintJsonString(__VERSION__);
  std::printf(", \"cxx_flags\": ");
  PrintJsonString(PAPD_BENCH_CXX_FLAGS);
  std::printf(", \"build_type\": ");
  PrintJsonString(PAPD_BENCH_BUILD_TYPE);
  std::printf(", \"tick_kernel\": ");
  PrintJsonString(out.tick_kernel);
  std::printf(", \"pool_width\": %d}}\n", kPoolWidth);
  return 0;
}

}  // namespace
}  // namespace papd

int main(int argc, char** argv) { return papd::Main(argc, argv); }
