// Policy registry: the one table describing every PolicyKind.
//
// The daemon, the experiment harness and papdctl all used to carry their
// own switch over PolicyKind — one to construct the policy, one to name
// it, one to parse a CLI string, one to decide whether the kind runs a
// control loop.  Adding a policy meant finding every switch.  The registry
// collapses them: each kind has one PolicyInfo row with its canonical
// name, its behavioral traits and a factory for its ShareResource, and
// everything else derives from the row.  Every kind is a ShareResource:
// the share policies, the priority policy, and (for kRaplOnly and
// kStatic) a monitoring-only policy that holds one fixed target.

#ifndef SRC_POLICY_POLICY_REGISTRY_H_
#define SRC_POLICY_POLICY_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/policy/share_policy.h"

namespace papd {

struct DaemonConfig;

enum class PolicyKind {
  // No daemon control: hardware RAPL capping alone (the paper's baseline).
  kRaplOnly,
  // Fixed frequencies programmed once at start; no control loop.
  kStatic,
  kPriority,
  kFrequencyShares,
  kPerformanceShares,
  kPowerShares,
};

struct PolicyInfo {
  PolicyKind kind = PolicyKind::kRaplOnly;
  // Canonical name, used by papdctl --policy, reports and bench JSON.
  const char* name = "";
  // True for kinds that actively redistribute every control period (false
  // for the monitoring-only kRaplOnly and kStatic).  With auditing on, the
  // daemon audits exactly these kinds' policies (and custom ones under them).
  bool controls = false;
  // True when the policy requires per-core power telemetry (kPowerShares).
  bool needs_per_core_power = false;
  // Builds the kind's policy; reads the config fields the kind has
  // (DaemonConfig::priority, DaemonConfig::static_mhz).  Every row has one.
  std::unique_ptr<ShareResource> (*make)(const PolicyPlatform& platform,
                                         const DaemonConfig& config) = nullptr;
};

// The registry row for `kind`; every PolicyKind has one.
const PolicyInfo& GetPolicyInfo(PolicyKind kind);

// Constructs the policy of `config.kind`; never null.
std::unique_ptr<ShareResource> MakePolicy(const DaemonConfig& config,
                                          const PolicyPlatform& platform);

// The canonical name ("freq-shares", ...).
const char* PolicyKindName(PolicyKind kind);

// Looks a kind up by its canonical name; nullptr when unknown.
const PolicyInfo* FindPolicyByName(const std::string& name);

// All registered kinds, registry order.
const std::vector<PolicyKind>& AllPolicyKinds();

}  // namespace papd

#endif  // SRC_POLICY_POLICY_REGISTRY_H_
