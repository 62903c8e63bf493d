#include "src/policy/policy_registry.h"

#include <algorithm>
#include <iterator>

#include "src/common/check.h"
#include "src/policy/daemon.h"
#include "src/policy/frequency_shares.h"
#include "src/policy/performance_shares.h"
#include "src/policy/power_shares.h"
#include "src/policy/priority_policy.h"

namespace papd {
namespace {

// kRaplOnly and kStatic: every app holds one fixed target, so the daemon
// only monitors (under kRaplOnly, RAPL alone throttles).
class FixedTargetPolicy : public ShareResource {
 public:
  explicit FixedTargetPolicy(Mhz mhz) : mhz_(mhz) {}

  std::string Name() const override { return "fixed-target"; }
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps, Watts) override {
    return std::vector<Mhz>(apps.size(), mhz_);
  }
  std::vector<Mhz> Redistribute(const std::vector<ManagedApp>& apps, const TelemetrySample&,
                                Watts) override {
    return std::vector<Mhz>(apps.size(), mhz_);
  }

 private:
  Mhz mhz_;
};

// static_mhz under kStatic when it is set, otherwise the platform maximum.
std::unique_ptr<ShareResource> MakeFixedTarget(const PolicyPlatform& platform,
                                               const DaemonConfig& config) {
  const bool pinned = config.kind == PolicyKind::kStatic && config.static_mhz > Mhz{0.0};
  return std::make_unique<FixedTargetPolicy>(pinned ? config.static_mhz : platform.max_mhz);
}

std::unique_ptr<ShareResource> MakePriority(const PolicyPlatform& platform,
                                            const DaemonConfig& config) {
  return std::make_unique<PriorityPolicy>(platform, config.priority);
}

// Plain functions, not one template: GCC cannot fold a template
// instantiation's address against nullptr in the static_assert below when
// building with -fsanitize (null-pointer-check deletion is off there).
std::unique_ptr<ShareResource> MakeFrequencyShares(const PolicyPlatform& platform,
                                                   const DaemonConfig&) {
  return std::make_unique<FrequencyShares>(platform);
}

std::unique_ptr<ShareResource> MakePerformanceShares(const PolicyPlatform& platform,
                                                     const DaemonConfig&) {
  return std::make_unique<PerformanceShares>(platform);
}

std::unique_ptr<ShareResource> MakePowerShares(const PolicyPlatform& platform,
                                               const DaemonConfig&) {
  return std::make_unique<PowerShares>(platform);
}

constexpr PolicyInfo kRegistry[] = {
    {.kind = PolicyKind::kRaplOnly, .name = "rapl", .make = &MakeFixedTarget},
    {.kind = PolicyKind::kStatic, .name = "static", .make = &MakeFixedTarget},
    {.kind = PolicyKind::kPriority, .name = "priority", .controls = true, .make = &MakePriority},
    {.kind = PolicyKind::kFrequencyShares,
     .name = "freq-shares",
     .controls = true,
     .make = &MakeFrequencyShares},
    {.kind = PolicyKind::kPerformanceShares,
     .name = "perf-shares",
     .controls = true,
     .make = &MakePerformanceShares},
    {.kind = PolicyKind::kPowerShares,
     .name = "power-shares",
     .controls = true,
     .needs_per_core_power = true,
     .make = &MakePowerShares},
};
static_assert(std::all_of(std::begin(kRegistry), std::end(kRegistry),
                          [](const PolicyInfo& info) { return info.make != nullptr; }),
              "every PolicyKind row needs a factory");

}  // namespace

const PolicyInfo& GetPolicyInfo(PolicyKind kind) {
  for (const PolicyInfo& info : kRegistry) {
    if (info.kind == kind) {
      return info;
    }
  }
  PAPD_CHECK(false) << " PolicyKind " << static_cast<int>(kind) << " not registered";
  return kRegistry[0];
}

std::unique_ptr<ShareResource> MakePolicy(const DaemonConfig& config,
                                          const PolicyPlatform& platform) {
  return GetPolicyInfo(config.kind).make(platform, config);
}

const char* PolicyKindName(PolicyKind kind) { return GetPolicyInfo(kind).name; }

const PolicyInfo* FindPolicyByName(const std::string& name) {
  for (const PolicyInfo& info : kRegistry) {
    if (name == info.name) {
      return &info;
    }
  }
  return nullptr;
}

const std::vector<PolicyKind>& AllPolicyKinds() {
  static const std::vector<PolicyKind>* kinds = [] {
    auto* v = new std::vector<PolicyKind>;
    for (const PolicyInfo& info : kRegistry) {
      v->push_back(info.kind);
    }
    return v;
  }();
  return *kinds;
}

}  // namespace papd
