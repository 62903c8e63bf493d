// CloudSuite-websearch-like latency-sensitive workload.
//
// The paper's unfair-throttling and latency experiments (Figures 5, 12, 13)
// run CloudSuite websearch with 300 users on 9 cores next to a cpuburn
// power virus.  We model websearch as a closed-loop queueing system:
//
//   - `users` clients cycle between thinking (exponential think time) and
//     waiting for a search request to complete;
//   - each request carries an exponentially distributed service demand in
//     *cycles*, so its service time scales inversely with core frequency;
//   - requests are dispatched to the worker core with the least backlog and
//     served FCFS; a frequency-independent fixed latency (network, IO) is
//     added to the response time;
//   - the 90th percentile of response latencies is the reported metric.
//
// Because cycles are the unit of demand, throttling the worker cores (by
// RAPL or by a policy) directly inflates service times and, once the
// per-core service rate approaches the closed-loop arrival rate, p90
// latency grows dramatically — the behaviour Figure 5 documents.

#ifndef SRC_SPECSIM_WEBSEARCH_H_
#define SRC_SPECSIM_WEBSEARCH_H_

#include <queue>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/specsim/core_work.h"

namespace papd {

// Shape of the open-loop arrival-rate modulation over simulated time.
enum class ArrivalShape : uint8_t {
  kConstant = 0,  // Flat Poisson rate.
  kDiurnal,       // Sinusoidal day/night swing around the mean rate.
};

const char* ArrivalShapeName(ArrivalShape shape);

class WebSearch : public MultiCoreWork {
 public:
  // Exogenous (open-loop) arrival process.  When enabled, users no longer
  // wait for responses before issuing the next request: requests arrive
  // from a Poisson process at `users * requests_per_user_per_day / 86400`
  // requests/s, modulated by `shape`.  The closed-loop think-time cycle is
  // disabled, so queue depth is unbounded when arrivals outrun service —
  // exactly the overload behaviour a fleet under a power cap must surface.
  struct OpenLoop {
    bool enabled = false;
    double users = 1e6;
    static constexpr double requests_per_user_per_day = 20.0;
    ArrivalShape shape = ArrivalShape::kConstant;
    // kDiurnal: rate = mean * (1 + amplitude * sin(2*pi*(t + phase)/period)),
    // amplitude in [0, 1], period > 0 and phase finite (checked at
    // construction).
    double diurnal_amplitude = 0.5;
    Seconds diurnal_period_s{86400.0};
    Seconds shape_phase_s{0.0};
    // Keep the exact arrival timestamps (tests assert bit-identical
    // sequences across thread counts); off by default — fleets run long.
    bool record_arrivals = false;

    bool operator==(const OpenLoop&) const = default;
  };

  struct Params {
    int users = 300;
    static constexpr Seconds think_mean_s{2.0};
    // Mean service demand per request, in millions of cycles.  Calibrated
    // so the 300-user load runs the 9 worker cores at ~70-75% utilization
    // at full frequency (the paper's websearch draws 44 W on 9 cores at
    // 3 GHz, i.e. it is close to capacity) — which is what makes p90
    // latency collapse once a power cap throttles the workers.
    static constexpr double service_mcycles_mean = 120.0;
    // Frequency-independent part of the response time.
    static constexpr Seconds fixed_latency_s{0.003};
    // Instructions retired per cycle while serving.
    static constexpr double ipc = 1.0;
    // Dynamic-power activity factor while serving.
    static constexpr double activity = 0.65;
    OpenLoop open_loop;

    bool operator==(const Params&) const = default;
  };

  WebSearch(std::vector<int> cores, Params params, uint64_t seed);

  const std::vector<int>& Cores() const override { return cores_; }
  void RunBatch(Seconds dt, const Mhz* freqs_mhz, WorkSlice* out_slices,
                size_t n) override;
  bool UsesAvx() const override { return false; }
  std::string Name() const override { return "websearch"; }

  // Starts a new measurement window (e.g. after warmup): drops the recorded
  // latency samples and arrival log, zeroes the completion and arrival
  // counts and restarts the queue-depth statistics.
  void ResetStats();

  // Response-time percentile in seconds over the recorded window; p in
  // [0, 100].  Returns 0 with no completed requests.  Selected in place
  // (OrderStatistics): a call copies at most 4096 candidates, never a
  // larger log.
  Seconds LatencyPercentile(double p) const;

  size_t completed_requests() const { return completed_; }
  const std::vector<Seconds>& latencies() const { return latencies_; }

  // Mean per-core busy fraction over the last RunBatch slice.
  double last_mean_utilization() const {
    return last_util_sum_ / static_cast<double>(cores_.size());
  }

  // --- Open-loop telemetry ---------------------------------------------------
  // Requests admitted (open loop) or think-timer expiries (closed loop)
  // since the last ResetStats.
  uint64_t arrivals() const { return arrivals_; }
  size_t peak_queue_depth() const { return peak_queue_depth_; }
  // Time-weighted mean queue depth over the recorded window.
  double mean_queue_depth() const;
  // Exact arrival timestamps; only populated with open_loop.record_arrivals.
  const std::vector<Seconds>& arrival_log() const { return arrival_log_; }

 private:
  struct Request {
    Seconds submit_time;
    double remaining_cycles;
  };

  // One worker core's FCFS queue: a ring whose capacity is 0 or a power of
  // two and doubles when full.  Unlike a std::deque, an empty ring owns no
  // memory, and a warmed-up ring stops allocating.
  class RequestRing {
   public:
    bool empty() const { return size_ == 0; }
    Request& front() { return buf_[head_]; }
    void push_back(const Request& req);
    void pop_front() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      size_--;
    }

   private:
    std::vector<Request> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  // Dispatches a request submitted at `t` to the least-backlogged core.
  void Dispatch(Seconds t);

  // Admits every open-loop arrival with timestamp <= `end`.
  void AdmitOpenLoopArrivals(Seconds end);

  // Instantaneous open-loop arrival rate at simulated time `t` (requests/s,
  // after shape modulation); 0 in closed-loop mode.
  double ArrivalRateAt(Seconds t) const;

  // Draws the first open-loop arrival after `t`: one exponential gap at the
  // mean rate (kConstant), or the first kept candidate of a thinned
  // peak-rate process (kDiurnal).  +infinity when the mean rate is not
  // positive.
  Seconds NextArrivalAfter(Seconds t);

  std::vector<int> cores_;
  Params params_;
  Rng rng_;
  Seconds now_{0.0};

  // Min-heap of times at which thinking users submit their next request.
  std::priority_queue<Seconds, std::vector<Seconds>, std::greater<>> think_expiry_;
  std::vector<RequestRing> queues_;     // Per core, FCFS.
  std::vector<double> backlog_cycles_;  // Per core.

  // Next exogenous arrival time (open loop only).
  Seconds next_arrival_{0.0};

  std::vector<Seconds> latencies_;
  std::vector<Seconds> arrival_log_;
  size_t completed_ = 0;
  uint64_t arrivals_ = 0;
  size_t outstanding_ = 0;
  size_t peak_queue_depth_ = 0;
  // Integral of (dimensionless) queue depth over time, and the window it
  // covers, for the time-weighted mean (reset with the other stats).
  Seconds depth_integral_s_{0.0};
  Seconds depth_window_{0.0};
  // Sum of the per-core busy fractions of the last RunBatch slice.
  double last_util_sum_ = 0.0;
};

}  // namespace papd

#endif  // SRC_SPECSIM_WEBSEARCH_H_
