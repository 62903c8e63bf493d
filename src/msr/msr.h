// Model-specific-register front end of the simulated package.
//
// The paper's daemon controls hardware exclusively through MSRs (Intel
// PERF_CTL P-state requests, AMD P-state definition registers) and the
// /dev/cpu/*/msr energy/performance counters read by turbostat.  MsrFile
// reproduces that surface over the simulated Package:
//
//   - raw Read/Write of numbered registers with realistic encodings
//     (ratio fields, 32-bit wrapping energy counters in RAPL units), and
//   - typed helpers the rest of the code uses.
//
// Platform differences are enforced here, exactly where real hardware
// enforces them: Skylake programs per-core PERF_CTL ratios in 100 MHz
// units; Ryzen programs at most three P-state *definitions* (25 MHz units)
// and a per-core selector; per-core energy counters exist only on Ryzen;
// RAPL limit registers exist only on Skylake.

#ifndef SRC_MSR_MSR_H_
#define SRC_MSR_MSR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/common/units.h"
#include "src/cpusim/package.h"
#include "src/msr/fault_plan.h"

namespace papd {

// Register numbers (matching the real parts where practical).
inline constexpr uint32_t kMsrIa32Mperf = 0xE7;
inline constexpr uint32_t kMsrIa32Aperf = 0xE8;
inline constexpr uint32_t kMsrIa32PerfCtl = 0x199;
inline constexpr uint32_t kMsrFixedCtr0 = 0x309;       // Retired instructions.
inline constexpr uint32_t kMsrIa32ThermStatus = 0x19C;  // Digital thermometer.
inline constexpr uint32_t kMsrPkgPowerLimit = 0x610;
inline constexpr uint32_t kMsrPkgEnergyStatus = 0x611;
inline constexpr uint32_t kMsrAmdPstateDef0 = 0xC0010064;  // Slots 0..2 consecutive.
inline constexpr uint32_t kMsrAmdPstateCtl = 0xC0010062;   // Per-core slot select.
inline constexpr uint32_t kMsrAmdCoreEnergy = 0xC001029A;

class MsrFile {
 public:
  // Borrows the package.
  explicit MsrFile(Package* package);

  const PlatformSpec& spec() const { return package_->spec(); }
  int num_cores() const { return package_->num_cores(); }

  // --- Raw register interface ----------------------------------------------
  // cpu is ignored for package-scope registers; a per-core register on a
  // cpu outside [0, num_cores()) aborts, as do unknown registers and
  // feature-gated registers on the wrong platform (matching the #GP a real
  // part raises).
  uint64_t Read(uint32_t reg, int cpu) const;
  void Write(uint32_t reg, int cpu, uint64_t value);

  // --- Typed helpers ---------------------------------------------------------
  // Intel-style direct P-state request; only valid when the platform has no
  // simultaneous-P-state restriction.
  void WritePerfTargetMhz(int cpu, Mhz mhz);

  // AMD-style: redefine P-state slot (0..2) and point cores at slots.
  void WritePstateDefMhz(int slot, Mhz mhz);
  void SelectPstate(int cpu, int slot);
  Mhz ReadPstateDefMhz(int slot) const;

  // RAPL package limit (Skylake only); the read is the enabled limit, or
  // nullopt when none is in force.
  void WriteRaplLimitW(Watts limit_w);
  void DisableRaplLimit();
  std::optional<Watts> ReadRaplLimitW() const;

  // OS-level core idling (sysfs hotplug / forced deep C-state in the paper).
  void SetCoreOnline(int cpu, bool online);
  bool CoreOnline(int cpu) const { return package_->core(cpu).online(); }

  // Wall clock, as a TSC read would provide.
  Seconds NowSeconds() const { return package_->now(); }

  // --- Fault injection --------------------------------------------------------
  // Attaches a deterministic fault schedule: telemetry reads get corrupted
  // through Turbostat and P-state writes inside the plan's window may be
  // silently dropped (the register keeps its old value, as firmware-NAKed
  // writes do on real parts).  Replaces any previously enabled plan.
  void EnableFaults(const FaultPlan& plan);
  FaultInjector* faults() const { return faults_.get(); }

  // Total Write() calls issued (dropped or not); lets tests assert the
  // daemon does not rewrite P-state registers when targets are unchanged.
  int write_count() const { return write_count_; }

 private:
  Package* package_;
  std::array<Mhz, 3> pstate_def_mhz_;
  // Which slot each core currently selects (Ryzen path).
  std::vector<int> pstate_select_;
  std::unique_ptr<FaultInjector> faults_;
  int write_count_ = 0;
};

}  // namespace papd

#endif  // SRC_MSR_MSR_H_
