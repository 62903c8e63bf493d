// Declarative experiment sweeps: axes in, config cross-products out.
//
// Every figure in the paper is a sweep — a base configuration crossed with
// one or two axes (cap watts, policy, user population, arrival shape) —
// and before this API every bench binary re-wrote the same nested loops
// with its own ad-hoc labels.  SweepSpec is the declarative replacement,
// modeled on pequod's experiments.py definitions: a spec names its axes
// once, ExpandSweep() produces the exact cross-product as a golden-testable
// list of SweepPoints, and each point carries
//
//   - plotgroup: the axis values that select which plot the point lands on
//     (everything except the policy axis), and
//   - plotkey:   the curve within that plot (the policy axis),
//
// so downstream plotting never re-derives grouping from config diffs.
// RunSweep() executes scenario points through the existing RunScenarios
// batch engine and fleet points through RunFleet, and serializes every
// result through the one shared RunSummary surface (WriteSweepJson).

#ifndef SRC_EXPERIMENTS_SWEEP_H_
#define SRC_EXPERIMENTS_SWEEP_H_

#include <string>
#include <vector>

#include "src/cluster/fleet.h"
#include "src/common/thread_pool.h"
#include "src/experiments/harness.h"

namespace papd {

// What kind of run each expanded point performs.
enum class SweepTarget : uint8_t {
  kScenario = 0,  // RunScenario over ScenarioConfig (throughput mixes).
  kFleet,         // RunFleet over FleetConfig (serving fleet).
};

const char* SweepTargetName(SweepTarget target);

// One named fleet-level policy variant (the policy axis for kFleet).
struct FleetPolicy {
  std::string name;  // Plot key: "static", "priority", "slo-feedback".
  RackArbiterKind arbiter = RackArbiterKind::kShares;
  bool priority_hot = false;
};

FleetPolicy FleetPolicyStatic();
FleetPolicy FleetPolicyPriority();
FleetPolicy FleetPolicySloFeedback();

// The axes of the cross-product.  An empty axis contributes the base
// config's value (one implicit point on that axis).
struct SweepAxes {
  // Simulated user population (fleet) / closed-loop user count rounded to
  // int (scenario-target websearch is not swept here; fleets own users).
  std::vector<double> users;
  // Power cap: ScenarioConfig::limit_w or FleetConfig::budget_w.
  std::vector<Watts> caps_w;
  // Scenario policy axis (SweepTarget::kScenario).
  std::vector<PolicyKind> policies;
  // Fleet policy axis (SweepTarget::kFleet).
  std::vector<FleetPolicy> fleet_policies;
  // Open-loop arrival shape (fleet only).
  std::vector<ArrivalShape> shapes;
};

struct SweepSpec {
  std::string name;
  SweepTarget target = SweepTarget::kFleet;
  SweepAxes axes;
  // Template configs; axis values overwrite the swept fields.
  ScenarioConfig scenario_base{.platform = SkylakeXeon4114()};
  FleetConfig fleet_base;
  // Fleet execution window (scenario windows live in ScenarioConfig).
  Seconds fleet_warmup_s{10.0};
  Seconds fleet_measure_s{30.0};
};

// One expanded point: the concrete config plus its labels and the axis
// values that produced it.
struct SweepPoint {
  std::string name;       // "<sweep>/<k=v>/<k=v>/..." — unique in the sweep.
  std::string plotgroup;  // Non-policy axis values, "k=v,k=v".
  std::string plotkey;    // Policy axis value.
  double users = 0.0;
  Watts cap_w{0.0};
  std::string policy;
  ArrivalShape shape = ArrivalShape::kConstant;
  // Exactly one is meaningful, per the spec's target.
  ScenarioConfig scenario{.platform = SkylakeXeon4114()};
  FleetConfig fleet;
};

// The deterministic cross-product (axes iterate in declaration order:
// users, cap, shape, policy innermost); golden-tested.
std::vector<SweepPoint> ExpandSweep(const SweepSpec& spec);

struct SweepPointResult {
  SweepPoint point;
  // Shared reporting surface — written once for every target kind.
  RunSummary summary;
  // Fleet targets only.
  std::vector<FleetSocketResult> sockets;
  size_t total_slo_violations = 0;
  size_t total_measured_periods = 0;
  Watts max_grant_overrun_w{0.0};
};

struct SweepResult {
  std::string name;
  SweepTarget target = SweepTarget::kFleet;
  std::vector<SweepPointResult> points;
};

// Expands and executes the sweep on `pool` (nullptr: on the caller).
// Scenario points fan out through RunScenarios; fleet points run one after
// another, each fanning its live leaves out on the same pool.
SweepResult RunSweep(const SweepSpec& spec, ThreadPool* pool = &GlobalThreadPool());

// JSON artifact: {"sweep": name, "target": ..., "points": [{labels, axis
// values, summary, per-socket rows}]}.  This is the file `papdctl fleet`
// reads back.
std::string SweepResultToJson(const SweepResult& result);
void WriteSweepJson(const SweepResult& result, const std::string& path);

}  // namespace papd

#endif  // SRC_EXPERIMENTS_SWEEP_H_
