// Unit tests for the websearch closed-loop queueing model.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/stats.h"
#include "src/specsim/websearch.h"

namespace papd {
namespace {

std::vector<int> NineCores() { return {0, 1, 2, 3, 4, 5, 6, 7, 8}; }

// One 1 ms tick through the span entry point; returns the per-core slices.
std::vector<WorkSlice> Tick(WebSearch& ws, const std::vector<Mhz>& freqs) {
  std::vector<WorkSlice> slices(freqs.size());
  ws.RunBatch(Seconds{0.001}, freqs.data(), slices.data(), freqs.size());
  return slices;
}

// Advances the model `seconds` at a uniform frequency; returns p90 latency
// over the post-warmup window.
Seconds RunAt(WebSearch* ws, Mhz freq, Seconds warmup, Seconds seconds) {
  const std::vector<Mhz> freqs(ws->Cores().size(), freq);
  for (Seconds t{0.0}; t < warmup; t += Seconds{0.001}) {
    Tick(*ws, freqs);
  }
  ws->ResetStats();
  for (Seconds t{0.0}; t < seconds; t += Seconds{0.001}) {
    Tick(*ws, freqs);
  }
  return ws->LatencyPercentile(90);
}

TEST(WebSearch, CompletesRequestsAtFullSpeed) {
  WebSearch ws(NineCores(), WebSearch::Params{}, 1);
  RunAt(&ws, Mhz{2600}, Seconds{10}, Seconds{60});
  // 300 users with ~2 s think time and sub-second responses complete on the
  // order of 100+ requests per second.
  EXPECT_GT(ws.completed_requests(), 4000u);
}

TEST(WebSearch, LatencyPositiveAndAboveFixedFloor) {
  WebSearch::Params params;
  WebSearch ws(NineCores(), params, 1);
  const Seconds p90{RunAt(&ws, Mhz{2600}, Seconds{10}, Seconds{60})};
  EXPECT_GT(p90, params.fixed_latency_s);
}

TEST(WebSearch, ThrottlingInflatesTailLatency) {
  WebSearch fast(NineCores(), WebSearch::Params{}, 1);
  WebSearch slow(NineCores(), WebSearch::Params{}, 1);
  const Seconds p90_fast{RunAt(&fast, Mhz{2600}, Seconds{20}, Seconds{120})};
  const Seconds p90_slow{RunAt(&slow, Mhz{1300}, Seconds{20}, Seconds{120})};
  // Figure 5's central effect: halved frequency near capacity blows up p90.
  EXPECT_GT(p90_slow, 2.0 * p90_fast);
}

TEST(WebSearch, DeterministicForSameSeed) {
  WebSearch a(NineCores(), WebSearch::Params{}, 7);
  WebSearch b(NineCores(), WebSearch::Params{}, 7);
  EXPECT_DOUBLE_EQ(RunAt(&a, Mhz{2000}, Seconds{5}, Seconds{30}).value(), RunAt(&b, Mhz{2000}, Seconds{5}, Seconds{30}).value());
  EXPECT_EQ(a.completed_requests(), b.completed_requests());
}

TEST(WebSearch, ClosedLoopBoundsOutstandingRequests) {
  // Even at a crawl, a closed-loop system cannot have more outstanding
  // requests than users; completions continue (no livelock).
  WebSearch::Params params;
  params.users = 50;
  WebSearch ws(NineCores(), params, 3);
  RunAt(&ws, Mhz{800}, Seconds{30}, Seconds{120});
  EXPECT_GT(ws.completed_requests(), 100u);
}

TEST(WebSearch, UtilizationRisesWhenThrottled) {
  WebSearch fast(NineCores(), WebSearch::Params{}, 1);
  WebSearch slow(NineCores(), WebSearch::Params{}, 1);
  const std::vector<Mhz> f_fast(9, Mhz{2600.0});
  const std::vector<Mhz> f_slow(9, Mhz{1000.0});
  double fast_util = 0.0;
  double slow_util = 0.0;
  for (int i = 0; i < 60000; i++) {
    Tick(fast, f_fast);
    Tick(slow, f_slow);
    fast_util += fast.last_mean_utilization();
    slow_util += slow.last_mean_utilization();
  }
  EXPECT_GT(slow_util, fast_util);
}

TEST(WebSearch, SlicesReportWorkCharacteristics) {
  WebSearch::Params params;
  WebSearch ws(NineCores(), params, 1);
  const std::vector<Mhz> freqs(9, Mhz{2600.0});
  // Warm up until requests flow.
  for (int i = 0; i < 5000; i++) {
    Tick(ws, freqs);
  }
  const std::vector<WorkSlice> slices = Tick(ws, freqs);
  ASSERT_EQ(slices.size(), 9u);
  bool any_busy = false;
  for (const WorkSlice& s : slices) {
    EXPECT_GE(s.busy_fraction, 0.0);
    EXPECT_LE(s.busy_fraction, 1.0 + 1e-9);
    EXPECT_DOUBLE_EQ(s.avx_fraction, 0.0);
    if (s.busy_fraction > 0.0) {
      any_busy = true;
      EXPECT_DOUBLE_EQ(s.activity, params.activity);
      EXPECT_NEAR(s.instructions,
                  s.busy_fraction * freqs[0].value() * 1e6 * 0.001 * params.ipc, 1.0);
    }
  }
  EXPECT_TRUE(any_busy);
}

TEST(WebSearch, ZeroFrequencyCoreServesNothing) {
  WebSearch ws(NineCores(), WebSearch::Params{}, 1);
  std::vector<Mhz> freqs(9, Mhz{2600.0});
  freqs[4] = Mhz{0.0};  // Offlined member.
  for (int i = 0; i < 20000; i++) {
    const auto slices = Tick(ws, freqs);
    EXPECT_DOUBLE_EQ(slices[4].instructions, 0.0);
  }
  // The system still completes requests on the other 8 cores.
  EXPECT_GT(ws.completed_requests(), 500u);
}

// LatencyPercentile selects in place; it must equal a sort of the log
// exactly (EXPECT_EQ, not EXPECT_DOUBLE_EQ).
TEST(WebSearch, LatencyPercentileMatchesSortedLog) {
  WebSearch ws(NineCores(), WebSearch::Params{}, 1);
  RunAt(&ws, Mhz{2600}, Seconds{10}, Seconds{60});
  std::vector<double> samples;
  for (Seconds l : ws.latencies()) {
    samples.push_back(l.value());
  }
  ASSERT_EQ(samples.size(), ws.completed_requests());
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_EQ(ws.LatencyPercentile(p).value(), Percentile(samples, p)) << "p" << p;
  }
}

TEST(WebSearch, ResetStatsClearsWindow) {
  WebSearch ws(NineCores(), WebSearch::Params{}, 1);
  RunAt(&ws, Mhz{2600}, Seconds{0}, Seconds{30});
  EXPECT_GT(ws.completed_requests(), 0u);
  ws.ResetStats();
  EXPECT_EQ(ws.completed_requests(), 0u);
  EXPECT_DOUBLE_EQ(ws.LatencyPercentile(90).value(), 0.0);
}

// Open-loop diurnal arrivals at `amplitude` around a 100 requests/s mean,
// 60 s period, starting at the trough.
WebSearch::Params DiurnalParams(double amplitude) {
  WebSearch::Params params;
  WebSearch::OpenLoop& ol = params.open_loop;
  ol.enabled = true;
  ol.users = 100.0 * 86400.0 / ol.requests_per_user_per_day;
  ol.shape = ArrivalShape::kDiurnal;
  ol.diurnal_amplitude = amplitude;
  ol.diurnal_period_s = Seconds{60.0};
  ol.shape_phase_s = Seconds{45.0};  // sin = -1 at t = 0.
  return params;
}

// A full-depth swing reaches a zero rate at the trough; arrivals must
// resume as the rate rises, so two whole periods admit the mean load.
TEST(WebSearch, DiurnalArrivalsRecoverFromZeroRateTrough) {
  WebSearch ws(NineCores(), DiurnalParams(1.0), 7);
  RunAt(&ws, Mhz{3000}, Seconds{0}, Seconds{120});
  EXPECT_NEAR(static_cast<double>(ws.arrivals()), 12000.0, 0.05 * 12000.0);
}

TEST(WebSearchDeathTest, DiurnalAmplitudeAboveOneAborts) {
  EXPECT_DEATH(WebSearch(NineCores(), DiurnalParams(1.5), 7), "diurnal amplitude");
}

}  // namespace
}  // namespace papd
