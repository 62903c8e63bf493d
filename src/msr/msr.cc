#include "src/msr/msr.h"

#include <cmath>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace papd {
namespace {

// 32-bit wrapping energy counter in RAPL units, as turbostat would read it.
uint64_t EnergyToRaplCounter(Joules j) {
  const double units = j.value() / kRaplEnergyUnitJoules;
  return static_cast<uint64_t>(std::llround(units)) & 0xFFFFFFFFULL;
}

[[noreturn]] void GeneralProtectionFault(uint32_t reg,
                                         const char* what = "access to unsupported MSR") {
  PAPD_LOG_ERROR("#GP: %s 0x%x", what, reg);
  std::abort();
}

// Registers with one instance per core.  Every other register is package
// scope and ignores the cpu number.
bool IsPerCoreMsr(uint32_t reg) {
  switch (reg) {
    case kMsrIa32Mperf:
    case kMsrIa32Aperf:
    case kMsrFixedCtr0:
    case kMsrIa32PerfCtl:
    case kMsrIa32ThermStatus:
    case kMsrAmdCoreEnergy:
    case kMsrAmdPstateCtl:
      return true;
    default:
      return false;
  }
}

// A per-core register on a cpu the package does not have faults, as rdmsr
// and wrmsr on a nonexistent cpu do, instead of indexing past the per-core
// state.
void CheckCpu(uint32_t reg, int cpu, int num_cores) {
  if (IsPerCoreMsr(reg) && (cpu < 0 || cpu >= num_cores)) {
    PAPD_LOG_ERROR("#GP: MSR 0x%x on cpu %d, outside the package's cpus 0..%d", reg, cpu,
                   num_cores - 1);
    std::abort();
  }
}

}  // namespace

MsrFile::MsrFile(Package* package) : package_(package) {
  // Power-on defaults: all slots at the base max frequency, all cores on
  // slot 0.
  pstate_def_mhz_.fill(spec().base_max_mhz);
  pstate_select_.assign(static_cast<size_t>(num_cores()), 0);
}

uint64_t MsrFile::Read(uint32_t reg, int cpu) const {
  CheckCpu(reg, cpu, num_cores());
  switch (reg) {
    case kMsrIa32Mperf:
      return static_cast<uint64_t>(package_->core(cpu).mperf_cycles());
    case kMsrIa32Aperf:
      return static_cast<uint64_t>(package_->core(cpu).aperf_cycles());
    case kMsrFixedCtr0:
      return static_cast<uint64_t>(package_->core(cpu).instructions_retired());
    case kMsrPkgEnergyStatus:
      return EnergyToRaplCounter(package_->package_energy_j());
    case kMsrPkgPowerLimit: {
      if (!spec().has_rapl_limit) {
        GeneralProtectionFault(reg);
      }
      const RaplController& rapl = package_->rapl();
      // Power in 1/8 W units (power-unit field value 3), enable in bit 15.
      uint64_t v = static_cast<uint64_t>(std::llround(rapl.limit_w().value() * 8.0)) & 0x7FFF;
      if (rapl.enabled()) {
        v |= 1ULL << 15;
      }
      return v;
    }
    case kMsrIa32PerfCtl: {
      const Mhz mhz{package_->core(cpu).requested_mhz()};
      return (static_cast<uint64_t>(std::llround(mhz.value() / 100.0)) & 0xFF) << 8;
    }
    case kMsrIa32ThermStatus: {
      // Digital readout in bits [22:16]: degrees below the junction limit.
      const double below =
          package_->spec().thermal.tj_max_c - package_->thermal().core_temp_c(cpu);
      const uint64_t readout =
          static_cast<uint64_t>(std::llround(std::max(0.0, below))) & 0x7F;
      return readout << 16;
    }
    case kMsrAmdCoreEnergy:
      if (!spec().has_per_core_power) {
        GeneralProtectionFault(reg);
      }
      return EnergyToRaplCounter(package_->core(cpu).energy_j());
    case kMsrAmdPstateCtl:
      if (spec().max_simultaneous_pstates == 0) {
        GeneralProtectionFault(reg);
      }
      return static_cast<uint64_t>(pstate_select_[static_cast<size_t>(cpu)]);
    default:
      if (reg >= kMsrAmdPstateDef0 && reg < kMsrAmdPstateDef0 + 3) {
        if (spec().max_simultaneous_pstates == 0) {
          GeneralProtectionFault(reg);
        }
        // Frequency in 25 MHz units.
        return static_cast<uint64_t>(
            std::llround(pstate_def_mhz_[reg - kMsrAmdPstateDef0].value() / 25.0));
      }
      GeneralProtectionFault(reg);
  }
}

void MsrFile::Write(uint32_t reg, int cpu, uint64_t value) {
  write_count_++;
  CheckCpu(reg, cpu, num_cores());
  switch (reg) {
    case kMsrIa32PerfCtl: {
      if (spec().max_simultaneous_pstates != 0) {
        // Ryzen path must use P-state definitions, not per-core ratios.
        GeneralProtectionFault(reg);
      }
      if (faults_ != nullptr && faults_->DropPstateWrite(NowSeconds())) {
        // Silently ignored; the register keeps its old value.  Still a
        // control-plane event: the multi-rate planner must not keep holding
        // through a tick where software believes it reprogrammed a core.
        package_->NotifyControlPlaneEvent();
        return;
      }
      const Mhz mhz{static_cast<double>((value >> 8) & 0xFF) * 100.0};
      package_->SetRequestedMhz(cpu, mhz);
      return;
    }
    case kMsrPkgPowerLimit: {
      if (!spec().has_rapl_limit) {
        GeneralProtectionFault(reg);
      }
      const Watts limit{static_cast<double>(value & 0x7FFF) / 8.0};
      if (value & (1ULL << 15)) {
        package_->SetRaplLimit(limit);
      } else {
        package_->ClearRaplLimit();
      }
      return;
    }
    case kMsrAmdPstateCtl: {
      if (spec().max_simultaneous_pstates == 0) {
        GeneralProtectionFault(reg);
      }
      if (faults_ != nullptr && faults_->DropPstateWrite(NowSeconds())) {
        package_->NotifyControlPlaneEvent();
        return;
      }
      const int slot = static_cast<int>(value & 0x7);
      if (slot >= static_cast<int>(pstate_def_mhz_.size())) {
        GeneralProtectionFault(reg, "P-state selector beyond the defined slots in MSR");
      }
      pstate_select_[static_cast<size_t>(cpu)] = slot;
      package_->SetRequestedMhz(cpu, pstate_def_mhz_[static_cast<size_t>(slot)]);
      return;
    }
    default:
      if (reg >= kMsrAmdPstateDef0 && reg < kMsrAmdPstateDef0 + 3) {
        if (spec().max_simultaneous_pstates == 0) {
          GeneralProtectionFault(reg);
        }
        if (faults_ != nullptr && faults_->DropPstateWrite(NowSeconds())) {
          package_->NotifyControlPlaneEvent();
          return;
        }
        const size_t slot = reg - kMsrAmdPstateDef0;
        pstate_def_mhz_[slot] = Mhz{static_cast<double>(value) * 25.0};
        // Redefining a slot retargets every core currently selecting it,
        // as on real Ryzen where the definition is live.
        for (int c = 0; c < num_cores(); c++) {
          if (pstate_select_[static_cast<size_t>(c)] == static_cast<int>(slot)) {
            package_->SetRequestedMhz(c, pstate_def_mhz_[slot]);
          }
        }
        return;
      }
      GeneralProtectionFault(reg);
  }
}

void MsrFile::WritePerfTargetMhz(int cpu, Mhz mhz) {
  Write(kMsrIa32PerfCtl, cpu, (static_cast<uint64_t>(std::llround(mhz.value() / 100.0)) & 0xFF) << 8);
}

void MsrFile::WritePstateDefMhz(int slot, Mhz mhz) {
  PAPD_CHECK(slot >= 0 && slot < static_cast<int>(pstate_def_mhz_.size())) << " P-state slot";
  Write(kMsrAmdPstateDef0 + static_cast<uint32_t>(slot), /*cpu=*/0,
        static_cast<uint64_t>(std::llround(mhz.value() / 25.0)));
}

void MsrFile::SelectPstate(int cpu, int slot) {
  Write(kMsrAmdPstateCtl, cpu, static_cast<uint64_t>(slot));
}

Mhz MsrFile::ReadPstateDefMhz(int slot) const {
  return Mhz{static_cast<double>(Read(kMsrAmdPstateDef0 + static_cast<uint32_t>(slot), 0)) * 25.0};
}

void MsrFile::WriteRaplLimitW(Watts limit_w) {
  Write(kMsrPkgPowerLimit, 0,
        (static_cast<uint64_t>(std::llround(limit_w.value() * 8.0)) & 0x7FFF) | (1ULL << 15));
}

void MsrFile::DisableRaplLimit() { Write(kMsrPkgPowerLimit, 0, 0); }

std::optional<Watts> MsrFile::ReadRaplLimitW() const {
  const uint64_t v = Read(kMsrPkgPowerLimit, 0);
  if ((v & (1ULL << 15)) == 0) {
    return std::nullopt;
  }
  return Watts{static_cast<double>(v & 0x7FFF) / 8.0};
}

void MsrFile::SetCoreOnline(int cpu, bool online) { package_->SetOnline(cpu, online); }

void MsrFile::EnableFaults(const FaultPlan& plan) {
  faults_ = std::make_unique<FaultInjector>(plan);
  // Arming a fault plan changes what the control plane may observe/do from
  // now on; force the multi-rate engine to resync.
  package_->NotifyControlPlaneEvent();
}

}  // namespace papd
