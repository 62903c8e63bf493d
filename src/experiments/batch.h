// Batch scenario execution: fan a list of independent scenario configs out
// across a thread pool and collect results in submission order.
//
// Each scenario owns its Package, Simulator and RNG streams, so scenarios
// never share mutable state and the fan-out is bit-identical to running
// RunScenario / RunWebsearch in a serial loop over the same configs.  The
// only cross-scenario state is the Standalone() baseline cache, which is
// mutex-guarded and deterministic (racing first computations produce
// identical entries).

#ifndef SRC_EXPERIMENTS_BATCH_H_
#define SRC_EXPERIMENTS_BATCH_H_

#include <vector>

#include "src/common/thread_pool.h"
#include "src/experiments/harness.h"

namespace papd {

// Runs every config and returns results[i] == RunScenario(configs[i]).
// The configs fan out through ParallelFor(pool, ...): by default on the
// shared GlobalThreadPool() (worker count from PAPD_JOBS or the hardware),
// one after another on the caller when pool == nullptr.  Exceptions thrown
// by a scenario propagate to the caller after the batch drains.
std::vector<ScenarioResult> RunScenarios(const std::vector<ScenarioConfig>& configs,
                                         ThreadPool* pool = &GlobalThreadPool());

// Same contract for websearch experiments.
std::vector<WebsearchResult> RunWebsearches(const std::vector<WebsearchConfig>& configs,
                                            ThreadPool* pool = &GlobalThreadPool());

}  // namespace papd

#endif  // SRC_EXPERIMENTS_BATCH_H_
