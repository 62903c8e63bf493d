#include "src/experiments/batch.h"

namespace papd {

std::vector<ScenarioResult> RunScenarios(const std::vector<ScenarioConfig>& configs,
                                         ThreadPool* pool) {
  std::vector<ScenarioResult> results(configs.size());
  ParallelFor(pool, configs.size(), [&](size_t i) { results[i] = RunScenario(configs[i]); });
  return results;
}

std::vector<WebsearchResult> RunWebsearches(const std::vector<WebsearchConfig>& configs,
                                            ThreadPool* pool) {
  std::vector<WebsearchResult> results(configs.size());
  ParallelFor(pool, configs.size(), [&](size_t i) { results[i] = RunWebsearch(configs[i]); });
  return results;
}

}  // namespace papd
