#include "src/experiments/sweep.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/experiments/batch.h"
#include "src/obs/export.h"
#include "src/policy/policy_registry.h"

namespace papd {

namespace {

using json::Appendf;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Compact axis-value formatting: "2e+08" style for populations, plain for
// watts; shared by names and plotgroups so the two always agree.
std::string FormatDouble(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

struct AxisValues {
  double users = 0.0;
  bool has_users = false;
  Watts cap_w{0.0};
  bool has_cap = false;
  ArrivalShape shape = ArrivalShape::kConstant;
  bool has_shape = false;
  std::string policy;
};

std::string PointName(const SweepSpec& spec, const AxisValues& v) {
  std::string name = spec.name;
  if (v.has_users) {
    name += "/users=" + FormatDouble(v.users);
  }
  if (v.has_cap) {
    name += "/cap=" + FormatDouble(v.cap_w.value()) + "w";
  }
  if (v.has_shape) {
    name += std::string("/shape=") + ArrivalShapeName(v.shape);
  }
  name += "/policy=" + v.policy;
  return name;
}

std::string PlotGroup(const AxisValues& v) {
  std::string group;
  auto add = [&group](const std::string& kv) {
    if (!group.empty()) {
      group += ",";
    }
    group += kv;
  };
  if (v.has_users) {
    add("users=" + FormatDouble(v.users));
  }
  if (v.has_cap) {
    add("cap=" + FormatDouble(v.cap_w.value()) + "w");
  }
  if (v.has_shape) {
    add(std::string("shape=") + ArrivalShapeName(v.shape));
  }
  return group;
}

void AppendSummaryJson(const RunSummary& s, std::string* out) {
  Appendf(out,
          "{\"avg_pkg_w\":%.4f,\"max_pkg_w\":%.4f,\"measured_s\":%.3f,"
          "\"energy_j\":%.2f,\"p50_latency_s\":%.6f,\"p90_latency_s\":%.6f,"
          "\"p99_latency_s\":%.6f,\"completed_requests\":%zu",
          s.avg_pkg_w.value(), s.max_pkg_w.value(), s.measured_s.value(),
          s.energy_j.value(), s.p50_latency.value(), s.p90_latency.value(),
          s.p99_latency.value(), s.completed_requests);
  if (!s.apps.empty()) {
    out->append(",\"apps\":[");
    for (size_t i = 0; i < s.apps.size(); ++i) {
      const AppResult& a = s.apps[i];
      Appendf(out,
              "%s{\"name\":\"%s\",\"cpu\":%d,\"norm_perf\":%.4f,"
              "\"avg_active_mhz\":%.1f}",
              i == 0 ? "" : ",", JsonEscape(a.name).c_str(), a.cpu, a.norm_perf,
              a.avg_active_mhz.value());
    }
    out->append("]");
  }
  out->append("}");
}

}  // namespace

const char* SweepTargetName(SweepTarget target) {
  switch (target) {
    case SweepTarget::kScenario:
      return "scenario";
    case SweepTarget::kFleet:
      return "fleet";
  }
  return "unknown";
}

FleetPolicy FleetPolicyStatic() {
  return FleetPolicy{"static", RackArbiterKind::kShares, false};
}

FleetPolicy FleetPolicyPriority() {
  return FleetPolicy{"priority", RackArbiterKind::kShares, true};
}

FleetPolicy FleetPolicySloFeedback() {
  return FleetPolicy{"slo-feedback", RackArbiterKind::kSloFeedback, false};
}

std::vector<SweepPoint> ExpandSweep(const SweepSpec& spec) {
  PAPD_CHECK(!spec.name.empty()) << " sweeps must be named (plot labels)";
  std::vector<SweepPoint> points;

  // Empty axes contribute exactly the base config's value; sentinel lists
  // keep the loop structure uniform.
  const bool has_users = !spec.axes.users.empty();
  const std::vector<double> users =
      has_users ? spec.axes.users : std::vector<double>{0.0};
  const bool has_cap = !spec.axes.caps_w.empty();
  const std::vector<Watts> caps =
      has_cap ? spec.axes.caps_w : std::vector<Watts>{Watts{0.0}};
  const bool has_shape = !spec.axes.shapes.empty();
  const std::vector<ArrivalShape> shapes =
      has_shape ? spec.axes.shapes : std::vector<ArrivalShape>{ArrivalShape::kConstant};

  for (double u : users) {
    for (Watts cap : caps) {
      for (ArrivalShape shape : shapes) {
        AxisValues v;
        v.has_users = has_users;
        v.has_cap = has_cap;
        v.has_shape = has_shape;
        v.cap_w = cap;
        v.shape = shape;

        if (spec.target == SweepTarget::kScenario) {
          const std::vector<PolicyKind> policies =
              spec.axes.policies.empty()
                  ? std::vector<PolicyKind>{spec.scenario_base.policy}
                  : spec.axes.policies;
          for (PolicyKind policy : policies) {
            SweepPoint p;
            p.scenario = spec.scenario_base;
            p.scenario.policy = policy;
            if (has_cap) {
              p.scenario.limit_w = cap;
            }
            v.users = 0.0;
            v.policy = PolicyKindName(policy);
            p.users = 0.0;
            p.cap_w = has_cap ? cap : p.scenario.limit_w;
            p.shape = shape;
            p.policy = v.policy;
            p.name = PointName(spec, v);
            p.plotgroup = PlotGroup(v);
            p.plotkey = v.policy;
            points.push_back(std::move(p));
          }
        } else {
          const std::vector<FleetPolicy> policies =
              spec.axes.fleet_policies.empty()
                  ? std::vector<FleetPolicy>{FleetPolicyStatic()}
                  : spec.axes.fleet_policies;
          for (const FleetPolicy& policy : policies) {
            SweepPoint p;
            p.fleet = spec.fleet_base;
            p.fleet.arbiter = policy.arbiter;
            p.fleet.priority_hot = policy.priority_hot;
            if (has_users) {
              p.fleet.users = u;
            }
            if (has_cap) {
              p.fleet.budget_w = cap;
            }
            if (has_shape) {
              p.fleet.shape = shape;
            }
            v.users = p.fleet.users;
            v.policy = policy.name;
            p.users = p.fleet.users;
            p.cap_w = has_cap ? cap : p.fleet.budget_w;
            p.shape = p.fleet.shape;
            p.policy = policy.name;
            p.name = PointName(spec, v);
            p.plotgroup = PlotGroup(v);
            p.plotkey = policy.name;
            points.push_back(std::move(p));
          }
        }
      }
    }
  }
  return points;
}

SweepResult RunSweep(const SweepSpec& spec, ThreadPool* pool) {
  SweepResult result;
  result.name = spec.name;
  result.target = spec.target;
  std::vector<SweepPoint> points = ExpandSweep(spec);
  result.points.reserve(points.size());

  if (spec.target == SweepTarget::kScenario) {
    // Scenario points are independent single-socket runs; the batch engine
    // fans the whole cross-product out at once.
    std::vector<ScenarioConfig> configs;
    configs.reserve(points.size());
    for (const SweepPoint& p : points) {
      configs.push_back(p.scenario);
    }
    std::vector<ScenarioResult> runs = RunScenarios(configs, pool);
    for (size_t i = 0; i < points.size(); ++i) {
      SweepPointResult pr;
      pr.point = std::move(points[i]);
      pr.summary = std::move(runs[i]);
      result.points.push_back(std::move(pr));
    }
    return result;
  }

  // Fleet points each saturate the pool internally (hundreds of leaves), so
  // they run one after another.
  for (SweepPoint& p : points) {
    FleetResult run = RunFleet(p.fleet, spec.fleet_warmup_s, spec.fleet_measure_s, pool);
    SweepPointResult pr;
    pr.point = std::move(p);
    pr.summary = std::move(run.summary);
    pr.sockets = std::move(run.sockets);
    pr.total_slo_violations = run.total_slo_violations;
    pr.total_measured_periods = run.total_measured_periods;
    pr.max_grant_overrun_w = run.max_grant_overrun_w;
    result.points.push_back(std::move(pr));
  }
  return result;
}

std::string SweepResultToJson(const SweepResult& result) {
  std::string out;
  Appendf(&out, "{\n\"sweep\": \"%s\",\n\"target\": \"%s\",\n\"points\": [\n",
          JsonEscape(result.name).c_str(), SweepTargetName(result.target));
  for (size_t i = 0; i < result.points.size(); ++i) {
    const SweepPointResult& pr = result.points[i];
    Appendf(&out,
            "{\"name\":\"%s\",\"plotgroup\":\"%s\",\"plotkey\":\"%s\","
            "\"users\":%g,\"cap_w\":%.4f,\"shape\":\"%s\",\"policy\":\"%s\","
            "\"summary\":",
            JsonEscape(pr.point.name).c_str(), JsonEscape(pr.point.plotgroup).c_str(),
            JsonEscape(pr.point.plotkey).c_str(), pr.point.users,
            pr.point.cap_w.value(), ArrivalShapeName(pr.point.shape),
            JsonEscape(pr.point.policy).c_str());
    AppendSummaryJson(pr.summary, &out);
    if (result.target == SweepTarget::kFleet) {
      Appendf(&out,
              ",\"total_slo_violations\":%zu,\"total_measured_periods\":%zu,"
              "\"max_grant_overrun_w\":%.9f,\"sockets\":[",
              pr.total_slo_violations, pr.total_measured_periods,
              pr.max_grant_overrun_w.value());
      for (size_t s = 0; s < pr.sockets.size(); ++s) {
        const FleetSocketResult& sr = pr.sockets[s];
        Appendf(&out,
                "%s{\"path\":\"%s\",\"hot\":%s,\"grant_w\":%.3f,"
                "\"p50_s\":%.6f,\"p90_s\":%.6f,\"p99_s\":%.6f,"
                "\"completed\":%zu,\"arrivals\":%" PRIu64
                ",\"slo_violation_periods\":%zu,\"measured_periods\":%zu,"
                "\"mean_queue_depth\":%.3f,\"peak_queue_depth\":%zu}",
                s == 0 ? "" : ",\n", JsonEscape(sr.path).c_str(),
                sr.hot ? "true" : "false", sr.grant_w.value(), sr.p50.value(),
                sr.p90.value(), sr.p99.value(), sr.completed, sr.arrivals,
                sr.slo_violation_periods, sr.measured_periods,
                sr.mean_queue_depth, sr.peak_queue_depth);
      }
      out += "]";
    }
    out += i + 1 < result.points.size() ? "},\n" : "}\n";
  }
  out += "]\n}\n";
  return out;
}

void WriteSweepJson(const SweepResult& result, const std::string& path) {
  PAPD_CHECK(obs::WriteFile(path, SweepResultToJson(result))) << " cannot write " << path;
}

}  // namespace papd
