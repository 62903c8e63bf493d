// papdctl — command-line front end for the power-delivery daemon.
//
// The paper ships its userspace daemon and scripts; papdctl is the
// equivalent operator tool for the simulated platforms: describe a set of
// applications with shares/priorities, pick a policy and a power limit, and
// watch the control loop run.
//
// Usage:
//   papdctl [--platform skylake|ryzen] [--policy POLICY] [--limit W]
//           [--duration S] [--period S] [--static-mhz MHZ] [--hwp]
//           [--no-starve] [--trace] [--csv FILE]
//           --app NAME[:shares=X][:hp|:lp] [--app ...]
//   papdctl fleet --sweep FILE [--point NAME]
//
// Policies: rapl, static, priority, freq-shares, perf-shares, power-shares.
// --hwp (saturation hints) needs a controlling policy, not rapl or static.
//
// The `fleet` subcommand reads a sweep JSON artifact (WriteSweepJson — see
// src/experiments/sweep.h): without --point it tabulates every sweep point's fleet-level outcome; with
// --point NAME it drills into one point's per-socket grants, tail
// latencies, and SLO violations.
//
// Examples:
//   papdctl --policy freq-shares --limit 45
//       --app leela:shares=90 --app cpuburn:shares=10
//   papdctl --platform ryzen --policy priority --limit 40
//       --app cactusBSSN:hp --app cactusBSSN:hp --app leela:lp --app leela:lp
//   papdctl fleet --sweep tests/data/fleet_sweep_sample.json
//   papdctl fleet --sweep tests/data/fleet_sweep_sample.json --point "probe/policy=slo-feedback"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/table.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/harness.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

struct AppArg {
  std::string name;
  double shares = 1.0;
  bool high_priority = false;
};

struct Options {
  PlatformSpec platform = SkylakeXeon4114();
  PolicyKind policy = PolicyKind::kFrequencyShares;
  Watts limit_w{45.0};
  Seconds duration_s{60.0};
  Seconds period_s{1.0};
  Mhz static_mhz{0.0};
  bool hwp = false;
  bool starve_lp = true;
  bool trace = false;
  std::string csv_path;
  std::vector<AppArg> apps;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--platform skylake|ryzen] [--policy POLICY] [--limit W]\n"
               "          [--duration S] [--period S] [--static-mhz MHZ] [--hwp]\n"
               "          [--no-starve] [--trace] [--csv FILE]\n"
               "          --app NAME[:shares=X][:hp|:lp] [--app ...]\n"
               "policies: rapl static priority freq-shares perf-shares power-shares\n",
               argv0);
  std::exit(2);
}

PolicyKind ParsePolicy(const std::string& s, const char* argv0) {
  if (const PolicyInfo* info = FindPolicyByName(s)) {
    return info->kind;
  }
  std::fprintf(stderr, "unknown policy: %s\n", s.c_str());
  Usage(argv0);
}

AppArg ParseApp(const std::string& spec, const char* argv0) {
  AppArg app;
  size_t pos = 0;
  size_t colon = spec.find(':');
  app.name = spec.substr(0, colon);
  if (!HasProfile(app.name)) {
    std::fprintf(stderr, "unknown workload profile: %s\n", app.name.c_str());
    Usage(argv0);
  }
  while (colon != std::string::npos) {
    pos = colon + 1;
    colon = spec.find(':', pos);
    const std::string field = spec.substr(pos, colon == std::string::npos ? colon : colon - pos);
    if (field.rfind("shares=", 0) == 0) {
      app.shares = std::atof(field.c_str() + 7);
    } else if (field == "hp") {
      app.high_priority = true;
    } else if (field == "lp") {
      app.high_priority = false;
    } else {
      std::fprintf(stderr, "bad app field: %s\n", field.c_str());
      Usage(argv0);
    }
  }
  return app;
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--platform") {
      const std::string v = value();
      if (v == "skylake") {
        opt.platform = SkylakeXeon4114();
      } else if (v == "ryzen") {
        opt.platform = Ryzen1700X();
      } else {
        std::fprintf(stderr, "unknown platform: %s\n", v.c_str());
        Usage(argv[0]);
      }
    } else if (arg == "--policy") {
      opt.policy = ParsePolicy(value(), argv[0]);
    } else if (arg == "--limit") {
      opt.limit_w = Watts{std::atof(value().c_str())};
    } else if (arg == "--duration") {
      opt.duration_s = Seconds{std::atof(value().c_str())};
    } else if (arg == "--period") {
      opt.period_s = Seconds{std::atof(value().c_str())};
    } else if (arg == "--static-mhz") {
      opt.static_mhz = Mhz{std::atof(value().c_str())};
    } else if (arg == "--hwp") {
      opt.hwp = true;
    } else if (arg == "--no-starve") {
      opt.starve_lp = false;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--csv") {
      opt.csv_path = value();
    } else if (arg == "--app") {
      opt.apps.push_back(ParseApp(value(), argv[0]));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
    }
  }
  if (opt.apps.empty()) {
    std::fprintf(stderr, "at least one --app is required\n");
    Usage(argv[0]);
  }
  if (!(opt.period_s > Seconds{0.0})) {
    std::fprintf(stderr, "--period must be positive\n");
    Usage(argv[0]);
  }
  // Saturation probes lower a target for a period; a monitoring-only policy
  // has no redistribution for the hints to feed, so they would only perturb
  // its fixed targets.
  if (opt.hwp && !GetPolicyInfo(opt.policy).controls) {
    std::fprintf(stderr, "--hwp needs a controlling policy\n");
    Usage(argv[0]);
  }
  if (static_cast<int>(opt.apps.size()) > opt.platform.num_cores) {
    std::fprintf(stderr, "%zu apps but only %d cores\n", opt.apps.size(),
                 opt.platform.num_cores);
    std::exit(2);
  }
  return opt;
}

// --- `papdctl fleet`: inspect sweep JSON artifacts ---------------------------

[[noreturn]] void FleetUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s fleet --sweep FILE [--point NAME]\n"
               "reads a sweep artifact written by WriteSweepJson;\n"
               "--point drills into one sweep point's per-socket detail\n",
               argv0);
  std::exit(2);
}

std::string FormatMs(const json::Value& obj, const char* key) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    return "-";
  }
  return TextTable::Num(v->AsNumber() * 1e3, 1);
}

int FleetListPoints(const json::Value& doc) {
  const json::Value* points = doc.Find("points");
  if (points == nullptr || !points->is_array()) {
    std::fprintf(stderr, "sweep artifact has no points array\n");
    return 1;
  }
  std::printf("sweep %s (%s target, %zu points)\n",
              doc.StringOr("sweep", "?").c_str(), doc.StringOr("target", "?").c_str(),
              points->AsArray().size());
  TextTable t;
  t.SetHeader({"point", "policy", "avg W", "p50 ms", "p90 ms", "p99 ms", "completed",
               "SLO viol", "periods"});
  for (const json::Value& p : points->AsArray()) {
    const json::Value* summary = p.Find("summary");
    const json::Value empty;
    const json::Value& s = summary != nullptr ? *summary : empty;
    t.AddRow({p.StringOr("name", "?"), p.StringOr("policy", "-"),
              TextTable::Num(s.NumberOr("avg_pkg_w", 0.0), 1),
              FormatMs(s, "p50_latency_s"), FormatMs(s, "p90_latency_s"),
              FormatMs(s, "p99_latency_s"),
              TextTable::Num(s.NumberOr("completed_requests", 0.0), 0),
              TextTable::Num(p.NumberOr("total_slo_violations", 0.0), 0),
              TextTable::Num(p.NumberOr("total_measured_periods", 0.0), 0)});
  }
  t.Print(std::cout);
  return 0;
}

int FleetShowPoint(const json::Value& doc, const std::string& name) {
  const json::Value* points = doc.Find("points");
  if (points == nullptr || !points->is_array()) {
    std::fprintf(stderr, "sweep artifact has no points array\n");
    return 1;
  }
  const json::Value* point = nullptr;
  for (const json::Value& p : points->AsArray()) {
    if (p.StringOr("name", "") == name) {
      point = &p;
      break;
    }
  }
  if (point == nullptr) {
    std::fprintf(stderr, "no point named '%s'; available:\n", name.c_str());
    for (const json::Value& p : points->AsArray()) {
      std::fprintf(stderr, "  %s\n", p.StringOr("name", "?").c_str());
    }
    return 1;
  }
  const json::Value* sockets = point->Find("sockets");
  if (sockets == nullptr || !sockets->is_array()) {
    std::fprintf(stderr,
                 "point '%s' carries no per-socket detail (scenario target?)\n",
                 name.c_str());
    return 1;
  }
  std::printf("%s: %zu sockets, %.0f violations / %.0f socket-periods, "
              "max grant overrun %.2e W\n",
              name.c_str(), sockets->AsArray().size(),
              point->NumberOr("total_slo_violations", 0.0),
              point->NumberOr("total_measured_periods", 0.0),
              point->NumberOr("max_grant_overrun_w", 0.0));
  TextTable t;
  t.SetHeader({"socket", "hot", "grant W", "p50 ms", "p90 ms", "p99 ms", "completed",
               "SLO viol", "mean q", "peak q"});
  for (const json::Value& s : sockets->AsArray()) {
    const json::Value* hot = s.Find("hot");
    t.AddRow({s.StringOr("path", "?"), hot != nullptr && hot->AsBool() ? "HOT" : "",
              TextTable::Num(s.NumberOr("grant_w", 0.0), 1), FormatMs(s, "p50_s"),
              FormatMs(s, "p90_s"), FormatMs(s, "p99_s"),
              TextTable::Num(s.NumberOr("completed", 0.0), 0),
              TextTable::Num(s.NumberOr("slo_violation_periods", 0.0), 0),
              TextTable::Num(s.NumberOr("mean_queue_depth", 0.0), 2),
              TextTable::Num(s.NumberOr("peak_queue_depth", 0.0), 0)});
  }
  t.Print(std::cout);
  return 0;
}

int RunFleetCommand(int argc, char** argv) {
  std::string sweep_path;
  std::string point_name;
  for (int i = 2; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        FleetUsage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--sweep") {
      sweep_path = value();
    } else if (arg == "--point") {
      point_name = value();
    } else if (arg == "--help" || arg == "-h") {
      FleetUsage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      FleetUsage(argv[0]);
    }
  }
  if (sweep_path.empty()) {
    std::fprintf(stderr, "--sweep FILE is required\n");
    FleetUsage(argv[0]);
  }
  std::ifstream in(sweep_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", sweep_path.c_str());
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const json::ParseResult parsed = json::Parse(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", sweep_path.c_str(), parsed.error.c_str());
    return 1;
  }
  if (point_name.empty()) {
    return FleetListPoints(parsed.value);
  }
  return FleetShowPoint(parsed.value, point_name);
}

int Run(const Options& opt) {
  // The per-period trace is written as each period closes, so a path that
  // cannot be opened fails before anything is simulated.
  std::ofstream csv;
  if (!opt.csv_path.empty()) {
    csv.open(opt.csv_path);
    if (!csv) {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
  }

  Package pkg(opt.platform);
  MsrFile msr(&pkg);

  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ManagedApp> managed;
  for (size_t i = 0; i < opt.apps.size(); i++) {
    const AppArg& app = opt.apps[i];
    procs.push_back(std::make_unique<Process>(GetProfile(app.name), 1000 + i));
    pkg.AttachWork(static_cast<int>(i), procs.back().get());
    managed.push_back(ManagedApp{
        .name = app.name,
        .cpu = static_cast<int>(i),
        .shares = app.shares,
        .high_priority = app.high_priority,
        .baseline_ips = Standalone(opt.platform, app.name).ips,
    });
  }
  for (int c = static_cast<int>(opt.apps.size()); c < pkg.num_cores(); c++) {
    pkg.SetRequestedMhz(c, opt.platform.min_mhz);
  }

  DaemonConfig dcfg;
  dcfg.kind = opt.policy;
  dcfg.power_limit_w = opt.limit_w;
  dcfg.period_s = opt.period_s;
  dcfg.static_mhz = opt.static_mhz;
  dcfg.priority.starve_lp = opt.starve_lp;
  dcfg.use_hwp_hints = opt.hwp;
  PowerDaemon daemon(&msr, managed, dcfg);
  daemon.Start();

  std::printf("papdctl: %s, policy %s, limit %.0f W, %zu apps, %.0f s\n",
              opt.platform.name.c_str(), PolicyKindName(opt.policy), opt.limit_w.value(),
              opt.apps.size(), opt.duration_s.value());

  if (csv.is_open()) {
    csv << "t,pkg_w";
    for (const ManagedApp& app : daemon.apps()) {
      csv << "," << app.name << "_mhz," << app.name << "_ips";
    }
    csv << "\n";
  }

  Simulator sim(&pkg);
  // Every policy steps, static included: its step samples the package for
  // the report, the CSV and the trace.  Under rapl and static (no --hwp)
  // it re-issues the unchanged targets, which Program skips as already
  // verified.
  sim.AddPeriodic(opt.period_s, [&daemon, &csv](Seconds) {
    daemon.Step();
    if (!csv.is_open()) {
      return;
    }
    const TelemetrySample& sample = daemon.last_sample();
    csv << sample.t << "," << sample.pkg_w;
    for (const ManagedApp& app : daemon.apps()) {
      const auto& core = sample.cores[static_cast<size_t>(app.cpu)];
      csv << "," << core.active_mhz << "," << core.ips;
    }
    csv << "\n";
  });
  if (opt.trace) {
    sim.AddPeriodic(Seconds{5.0}, [&daemon](Seconds now) {
      if (daemon.metrics().rows().empty()) {
        return;  // No control period has closed yet.
      }
      const TelemetrySample& sample = daemon.last_sample();
      std::printf("t=%5.0fs pkg=%5.1fW |", now.value(), sample.pkg_w.value());
      for (const ManagedApp& app : daemon.apps()) {
        const auto& core = sample.cores[static_cast<size_t>(app.cpu)];
        std::printf(" %s=%4.0fMHz", app.name.c_str(), core.active_mhz.value());
      }
      std::printf("\n");
    });
  }
  sim.Run(opt.duration_s);

  // Final report.
  TextTable t;
  t.SetHeader({"app", "cpu", "shares", "prio", "MHz", "Ginstr/s", "norm perf", "temp C"});
  const TelemetrySample& last = daemon.last_sample();
  for (const ManagedApp& app : daemon.apps()) {
    const auto& core =
        last.cores.empty() ? CoreTelemetry{} : last.cores[static_cast<size_t>(app.cpu)];
    t.AddRow({app.name, std::to_string(app.cpu), TextTable::Num(app.shares, 0),
              app.high_priority ? "HP" : "LP", TextTable::Num(core.active_mhz.value(), 0),
              TextTable::Num(core.ips.value() / 1e9, 2),
              TextTable::Num(app.baseline_ips > Ips{0} ? core.ips / app.baseline_ips : 0, 2),
              TextTable::Num(core.temp_c, 1)});
  }
  std::printf("\nfinal second of telemetry (pkg %.1f W):\n", last.pkg_w.value());
  t.Print(std::cout);

  if (csv.is_open()) {
    // close() flushes; a full device or I/O error surfaces here.
    csv.close();
    if (!csv) {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
    std::printf("wrote per-period trace: %s\n", opt.csv_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace papd

int main(int argc, char** argv) {
  // Subcommand dispatch first: flag-style invocations keep their historical
  // behavior (`papdctl --policy ...` runs the single-socket daemon loop).
  if (argc > 1 && std::string(argv[1]) == "fleet") {
    return papd::RunFleetCommand(argc, argv);
  }
  return papd::Run(papd::Parse(argc, argv));
}
