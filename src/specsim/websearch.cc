#include "src/specsim/websearch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace papd {
namespace {

// Mean open-loop arrival rate, requests/s, before shape modulation.
double MeanArrivalRate(const WebSearch::OpenLoop& ol) {
  return ol.users * ol.requests_per_user_per_day / 86400.0;
}

}  // namespace

const char* ArrivalShapeName(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::kConstant:
      return "constant";
    case ArrivalShape::kDiurnal:
      return "diurnal";
  }
  return "?";
}

WebSearch::WebSearch(std::vector<int> cores, Params params, uint64_t seed)
    : cores_(std::move(cores)), params_(params), rng_(seed) {
  PAPD_CHECK(!cores_.empty());
  queues_.resize(cores_.size());
  backlog_cycles_.assign(cores_.size(), 0.0);
  if (params_.open_loop.enabled) {
    const OpenLoop& ol = params_.open_loop;
    if (ol.shape == ArrivalShape::kDiurnal) {
      // A rate that goes negative is not a swing around the mean, and a
      // rate that is NaN everywhere would make thinning reject forever.
      PAPD_CHECK(ol.diurnal_amplitude >= 0.0 && ol.diurnal_amplitude <= 1.0)
          << " diurnal amplitude must lie in [0, 1], got " << ol.diurnal_amplitude;
      PAPD_CHECK(ol.diurnal_period_s > Seconds{0.0} && IsFinite(ol.shape_phase_s))
          << " diurnal period must be positive and phase finite, got "
          << ol.diurnal_period_s << " s and " << ol.shape_phase_s << " s";
    }
    // First exogenous arrival; each later one is drawn as its predecessor
    // is admitted, so the sequence depends only on the seed and the shape.
    next_arrival_ = NextArrivalAfter(Seconds{0.0});
  } else {
    // Users start thinking with independent phases so load ramps smoothly.
    for (int u = 0; u < params_.users; u++) {
      think_expiry_.push(rng_.Exponential(params_.think_mean_s));
    }
  }
}

void WebSearch::RequestRing::push_back(const Request& req) {
  if (size_ == buf_.size()) {
    // Full: double the capacity and unroll the ring to start at slot 0.
    std::vector<Request> grown(std::max<size_t>(8, 2 * buf_.size()));
    for (size_t k = 0; k < size_; k++) {
      grown[k] = buf_[(head_ + k) & (buf_.size() - 1)];
    }
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = req;
  size_++;
}

void WebSearch::Dispatch(Seconds t) {
  // Join-shortest-backlog (cycles, not queue length, so one long request
  // does not attract more work).
  size_t best = 0;
  for (size_t i = 1; i < queues_.size(); i++) {
    if (backlog_cycles_[i] < backlog_cycles_[best]) {
      best = i;
    }
  }
  const double demand = rng_.Exponential(params_.service_mcycles_mean) * 1e6;
  queues_[best].push_back(Request{.submit_time = t, .remaining_cycles = demand});
  backlog_cycles_[best] += demand;
  arrivals_++;
  outstanding_++;
  peak_queue_depth_ = std::max(peak_queue_depth_, outstanding_);
}

double WebSearch::ArrivalRateAt(Seconds t) const {
  const OpenLoop& ol = params_.open_loop;
  if (!ol.enabled) {
    return 0.0;
  }
  const double mean = MeanArrivalRate(ol);
  switch (ol.shape) {
    case ArrivalShape::kConstant:
      break;
    case ArrivalShape::kDiurnal: {
      const double phase = (t + ol.shape_phase_s) / ol.diurnal_period_s;
      return mean * (1.0 + ol.diurnal_amplitude * std::sin(2.0 * M_PI * phase));
    }
  }
  return mean;
}

Seconds WebSearch::NextArrivalAfter(Seconds t) {
  const OpenLoop& ol = params_.open_loop;
  const double mean = MeanArrivalRate(ol);
  if (!(mean > 0.0)) {
    return Seconds{std::numeric_limits<double>::infinity()};  // No load: never.
  }
  if (ol.shape == ArrivalShape::kConstant) {
    return t + rng_.Exponential(Seconds{1.0 / mean});
  }
  // Lewis-Shedler thinning: candidates arrive at the peak rate, and each is
  // kept with probability rate(candidate) / peak.  The kept arrivals follow
  // the modulated rate exactly, through a trough at zero too.
  const double peak = mean * (1.0 + ol.diurnal_amplitude);
  for (;;) {
    t += rng_.Exponential(Seconds{1.0 / peak});
    if (rng_.NextDouble() * peak < ArrivalRateAt(t)) {
      return t;
    }
  }
}

void WebSearch::AdmitOpenLoopArrivals(Seconds end) {
  while (next_arrival_ <= end) {
    const Seconds t{next_arrival_};
    Dispatch(t);
    if (params_.open_loop.record_arrivals) {
      arrival_log_.push_back(t);  // PAPD_HOT_ALLOW: test-only arrival log.
    }
    next_arrival_ = NextArrivalAfter(t);
  }
}

// PAPD_HOT — request bookkeeping (latency samples, think timers) grows
// amortized containers; those lines carry PAPD_HOT_ALLOW.
void WebSearch::RunBatch(Seconds dt, const Mhz* freqs_mhz,
                         WorkSlice* out_slices, size_t n) {
  PAPD_DCHECK_EQ(n, cores_.size());
  const Seconds end{now_ + dt};

  // Admit every request arriving in this slice.  Arrival times are
  // preserved exactly; service begins at tick granularity, which is fine
  // for dt (1 ms) << mean service time (~15 ms).
  if (params_.open_loop.enabled) {
    AdmitOpenLoopArrivals(end);
  } else {
    while (!think_expiry_.empty() && think_expiry_.top() <= end) {
      const Seconds t{think_expiry_.top()};
      think_expiry_.pop();
      Dispatch(t);
    }
  }

  // Locals: stores through out_slices could alias the members, so reading
  // them through `this` would reload them for every lane.
  const double ipc = params_.ipc;
  const double activity = params_.activity;
  RequestRing* const queues = queues_.data();
  double* const backlog = backlog_cycles_.data();
  const size_t count = cores_.size();
  double util_sum = 0.0;
  for (size_t i = 0; i < count; i++) {
    RequestRing& queue = queues[i];
    const double budget = freqs_mhz[i] * kHzPerMhz * dt;  // Cycles this slice.
    // Two exact shortcuts of the loop below.  An empty queue or a 0 MHz lane
    // (any budget that is not positive) serves nothing: the loop would leave
    // used = 0 and busy = 0, a zero slice that adds nothing to util_sum.
    if (queue.empty() || !(budget > 0.0)) {
      out_slices[i] = WorkSlice{};
      continue;
    }
    // A head request needing more than the whole budget absorbs it: the loop
    // would consume min(remaining, budget) = budget once, leave
    // remaining - budget > 0 (no completion) and available = 0, and compute
    // used = 0 + budget and busy = budget / budget = 1.
    Request& head = queue.front();
    if (head.remaining_cycles > budget) {
      head.remaining_cycles -= budget;
      backlog[i] -= budget;
      util_sum += 1.0;
      out_slices[i] = WorkSlice{
          .instructions = budget * ipc,
          .busy_fraction = 1.0,
          .activity = activity,
          .avx_fraction = 0.0,
      };
      continue;
    }

    // The head request completes inside the slice.
    double available = budget;
    double used = 0.0;
    while (!queue.empty() && available > 0.0) {
      Request& req = queue.front();
      const double consumed = std::min(req.remaining_cycles, available);
      req.remaining_cycles -= consumed;
      available -= consumed;
      used += consumed;
      backlog[i] -= consumed;
      if (req.remaining_cycles <= 0.0) {
        // Completion at the exact fractional point of the slice.
        const Seconds finish{now_ + SecondsForCycles(budget - available, freqs_mhz[i])};
        const Seconds latency{(finish - req.submit_time) + params_.fixed_latency_s};
        latencies_.push_back(latency);  // PAPD_HOT_ALLOW: amortized stats log.
        completed_++;
        if (outstanding_ > 0) {
          outstanding_--;
        }
        if (!params_.open_loop.enabled) {
          // The user sees the response, then thinks before the next request.
          think_expiry_.push(finish + params_.fixed_latency_s +  // PAPD_HOT_ALLOW
                             rng_.Exponential(params_.think_mean_s));
        }
        queue.pop_front();
      }
    }

    const double busy = used / budget;
    util_sum += busy;
    out_slices[i] = WorkSlice{
        .instructions = used * ipc,
        .busy_fraction = busy,
        .activity = busy > 0.0 ? activity : 0.0,
        .avx_fraction = 0.0,
    };
  }
  last_util_sum_ = util_sum;
  // Queue depth sampled at slice end, weighted by slice length: the
  // time-weighted mean over any window of uniform slices.
  depth_integral_s_ += dt * static_cast<double>(outstanding_);
  depth_window_ += dt;
  now_ = end;
}

void WebSearch::ResetStats() {
  latencies_.clear();
  arrival_log_.clear();
  completed_ = 0;
  arrivals_ = 0;
  peak_queue_depth_ = outstanding_;
  depth_integral_s_ = Seconds{0.0};
  depth_window_ = Seconds{0.0};
}

double WebSearch::mean_queue_depth() const {
  return depth_window_ > Seconds{0.0} ? depth_integral_s_ / depth_window_ : 0.0;
}

Seconds WebSearch::LatencyPercentile(double p) const {
  return OrderStatistics<Seconds>(latencies_).Percentile(p);
}

}  // namespace papd
