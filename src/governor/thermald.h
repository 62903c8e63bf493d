// Thermal daemon (paper Section 2.2's thermald).
//
// Enforces a temperature limit using one of two mechanisms the paper
// contrasts: *local* per-core DVFS (step down only the cores that are hot,
// leaving cool neighbours untouched — the behaviour that makes thermal
// management compatible with per-application power delivery) or *global*
// RAPL (lower the package power limit until the hottest core cools, which
// throttles every core like the Figure 1 scenario).

#ifndef SRC_GOVERNOR_THERMALD_H_
#define SRC_GOVERNOR_THERMALD_H_

#include <vector>

#include "src/cpusim/thermal.h"
#include "src/msr/msr.h"
#include "src/msr/turbostat.h"

namespace papd {

class ThermalDaemon {
 public:
  enum class Mode {
    kPerCoreDvfs,  // Local: one P-state step on each hot core per period.
    kGlobalRapl,   // Global: walk the package RAPL limit down/up.
  };

  // Throttling is released only 3 C below the limit (avoids flapping at the
  // threshold); kGlobalRapl moves the limit 2 W per period.
  struct Config {
    Celsius limit_c = 85.0;
    Mode mode = Mode::kPerCoreDvfs;
  };

  ThermalDaemon(MsrFile* msr, Config config);

  // One monitoring iteration (thermald polls at seconds granularity).
  void Step();

  // kGlobalRapl: the currently programmed package limit.
  Watts current_rapl_limit_w() const { return rapl_limit_w_; }

 private:
  MsrFile* msr_;
  Config config_;
  Turbostat turbostat_;
  Watts rapl_limit_w_;
};

}  // namespace papd

#endif  // SRC_GOVERNOR_THERMALD_H_
