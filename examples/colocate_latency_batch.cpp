// Co-locating a latency-sensitive service with a batch power hog.
//
// The scenario that motivates the paper (Section 3, "unfair throttling"):
// websearch serves 300 users on nine cores while a cpuburn power virus
// occupies the tenth, under a 40 W power cap.  With hardware RAPL capping
// alone the virus drags every core's frequency down and websearch's tail
// latency collapses; with the frequency-shares policy (90 shares per
// websearch core vs 10 for the virus) the virus is pinned at the minimum
// P-state and the service keeps its latency.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/colocate_latency_batch

#include <cstdio>

#include "src/experiments/harness.h"

int main() {
  using namespace papd;

  WebsearchConfig base{.platform = SkylakeXeon4114()};
  base.limit_w = Watts{40.0};
  base.warmup_s = Seconds{20.0};
  base.measure_s = Seconds{120.0};

  std::printf("websearch (9 cores, 300 users) + cpuburn, 40 W cap on Skylake\n\n");
  std::printf("%-28s %12s %12s %12s\n", "configuration", "p90 (ms)", "ws MHz", "virus MHz");

  WebsearchConfig alone = base;
  alone.policy = PolicyKind::kRaplOnly;
  alone.with_cpuburn = false;
  const WebsearchResult r_alone = RunWebsearch(alone);
  std::printf("%-28s %12.1f %12.0f %12s\n", "websearch alone (RAPL)",
              r_alone.p90_latency.value() * 1e3, r_alone.websearch_avg_mhz.value(), "-");

  WebsearchConfig rapl = base;
  rapl.policy = PolicyKind::kRaplOnly;
  const WebsearchResult r_rapl = RunWebsearch(rapl);
  std::printf("%-28s %12.1f %12.0f %12.0f\n", "+ cpuburn, RAPL only",
              r_rapl.p90_latency.value() * 1e3, r_rapl.websearch_avg_mhz.value(),
              r_rapl.cpuburn_avg_mhz.value());

  WebsearchConfig share = base;
  share.policy = PolicyKind::kFrequencyShares;  // 90/10 shares by default.
  const WebsearchResult r_share = RunWebsearch(share);
  std::printf("%-28s %12.1f %12.0f %12.0f\n", "+ cpuburn, freq shares 90/10",
              r_share.p90_latency.value() * 1e3, r_share.websearch_avg_mhz.value(),
              r_share.cpuburn_avg_mhz.value());

  std::printf(
      "\nRAPL alone lets the virus inflate websearch's p90 by %.1fx; the share\n"
      "policy recovers it to %.2fx of running alone.\n",
      r_rapl.p90_latency / r_alone.p90_latency, r_share.p90_latency / r_alone.p90_latency);
  return 0;
}
