#include "src/specsim/core_work.h"

namespace papd {

WorkSlice CoreWork::Run(Seconds dt, Mhz freq_mhz) {
  WorkSlice slice;
  RunBatch(dt, &freq_mhz, &slice, 1);
  return slice;
}

int CoreWork::SteadyTicks(Seconds /*dt*/) const { return 0; }

void CoreWork::RunSteadyBatch(Seconds dt, int k, Mhz freq_mhz,
                              WorkSlice* last_slice) {
  for (int step = 0; step < k; ++step) {
    RunBatch(dt, &freq_mhz, last_slice, 1);
  }
}

}  // namespace papd
