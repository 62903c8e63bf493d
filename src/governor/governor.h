// OS frequency governors (paper Section 2.2).
//
// Before per-application power policies, the standard software consumers of
// DVFS were per-core utilization-driven governors: Linux cpufreq's
// `performance`, `powersave`, `userspace`, `ondemand` and `conservative`.
// The paper's experiments use the userspace governor so the daemon can set
// P-states directly — here that is PowerDaemon itself, which writes the
// P-state registers.  The other four are implemented here both as
// substrate (they are the incumbent mechanism the policies replace) and as
// baselines for the governor-comparison bench: a utilization governor has
// no notion of shares or priority, so it cannot provide differential power
// delivery.
//
// Each governor is a pure decision function from the previous decision and
// the core's measured C0 utilization to the next frequency request on the
// platform's P-state grid (GovernorDecision).  StartGovernor runs one per
// core as a PowerDaemon policy, so the governors share the daemon's
// sampling, degradation ladder, P-state programming and tracing with the
// paper's policies.

#ifndef SRC_GOVERNOR_GOVERNOR_H_
#define SRC_GOVERNOR_GOVERNOR_H_

#include <memory>

#include "src/common/units.h"
#include "src/msr/msr.h"
#include "src/platform/pstate.h"
#include "src/policy/daemon.h"

namespace papd {

enum class GovernorKind { kPerformance, kPowersave, kOndemand, kConservative };

const char* GovernorKindName(GovernorKind kind);

// The `kind` governor's next frequency request for a core whose utilization
// (C0 fraction, 0..1) over the last sample period was `utilization` and whose
// current request is `current_mhz`.  The result is always a point of `grid`:
//   performance   the grid maximum;
//   powersave     the grid minimum;
//   ondemand      (Linux ondemand) the maximum from 80% utilization up,
//                 otherwise proportional to utilization with headroom;
//   conservative  (Linux conservative) like ondemand, but moves one step up
//                 or down instead of jumping, and holds in between.
// Thresholds and the conservative step are in governor.cc.
Mhz GovernorDecision(GovernorKind kind, const PStateTable& grid, double utilization,
                     Mhz current_mhz);

// How often a governed socket samples and decides (Linux cpufreq samples
// every tens of milliseconds).
inline constexpr Seconds kGovernorPeriod{0.1};

// A started PowerDaemon running a `kind` governor on every core of `msr`;
// step it once per `config().period_s` (kGovernorPeriod).  Requests start
// at the platform's base maximum; a valid sample moves each online,
// plausible core to its governor's decision on that core's utilization and
// holds the others.  A utilization governor has no budget: the daemon's
// limit is the package TDP, which only its overshoot metric, its trace and
// its RAPL safety net read.  The share auditor is off (budget conservation
// and share monotonicity do not describe a utilization governor); instead
// every decision is checked against the platform envelope and frequency
// grid, and a violation aborts with a formatted CHECK failure.
std::unique_ptr<PowerDaemon> StartGovernor(MsrFile* msr, GovernorKind kind, DaemonObs obs = {});

}  // namespace papd

#endif  // SRC_GOVERNOR_GOVERNOR_H_
