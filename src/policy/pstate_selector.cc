#include "src/policy/pstate_selector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/check.h"

namespace papd {

PStateSelection SelectPStates(const std::vector<Mhz>& targets, int k, Mhz step_mhz) {
  PStateSelection out;
  const size_t n = targets.size();
  if (n == 0) {
    return out;
  }
  PAPD_CHECK_GE(k, 1);

  // Sort indices by target.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&targets](size_t a, size_t b) { return targets[a] < targets[b]; });
  std::vector<double> x(n);
  for (size_t i = 0; i < n; i++) {
    x[i] = AsResourceUnits(targets[order[i]]);
  }

  // Prefix sums for O(1) segment cost: SSE of x[i..j] around its mean.
  std::vector<double> ps(n + 1, 0.0);
  std::vector<double> ps2(n + 1, 0.0);
  for (size_t i = 0; i < n; i++) {
    ps[i + 1] = ps[i] + x[i];
    ps2[i + 1] = ps2[i] + x[i] * x[i];
  }
  auto seg_cost = [&](size_t i, size_t j) {  // Inclusive range [i, j].
    const double cnt = static_cast<double>(j - i + 1);
    const double sum = ps[j + 1] - ps[i];
    const double sum2 = ps2[j + 1] - ps2[i];
    return sum2 - sum * sum / cnt;
  };

  // dp[c][j]: min cost of clustering x[0..j] into c clusters.
  const int kk = std::min<int>(k, static_cast<int>(n));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(static_cast<size_t>(kk) + 1,
                                      std::vector<double>(n, kInf));
  std::vector<std::vector<size_t>> cut(static_cast<size_t>(kk) + 1, std::vector<size_t>(n, 0));
  for (size_t j = 0; j < n; j++) {
    dp[1][j] = seg_cost(0, j);
  }
  for (int c = 2; c <= kk; c++) {
    for (size_t j = static_cast<size_t>(c) - 1; j < n; j++) {
      for (size_t i = static_cast<size_t>(c) - 1; i <= j; i++) {
        const double cost = dp[static_cast<size_t>(c) - 1][i - 1] + seg_cost(i, j);
        if (cost < dp[static_cast<size_t>(c)][j]) {
          dp[static_cast<size_t>(c)][j] = cost;
          cut[static_cast<size_t>(c)][j] = i;
        }
      }
    }
  }

  // Fewer clusters can never cost less, but ties are possible (e.g. fewer
  // distinct values than k); prefer the smallest cluster count at equal
  // cost.
  int best_c = kk;
  for (int c = 1; c <= kk; c++) {
    if (dp[static_cast<size_t>(c)][n - 1] <= dp[static_cast<size_t>(best_c)][n - 1] + 1e-9) {
      best_c = c;
      break;
    }
  }

  // Recover boundaries.
  std::vector<std::pair<size_t, size_t>> segments;
  size_t j = n - 1;
  for (int c = best_c; c >= 1; c--) {
    const size_t i = c == 1 ? 0 : cut[static_cast<size_t>(c)][j];
    segments.emplace_back(i, j);
    if (i == 0) {
      break;
    }
    j = i - 1;
  }
  std::reverse(segments.begin(), segments.end());

  // Levels: segment means rounded to the grid; sorted high-to-low like a
  // P-state table (slot 0 fastest).
  std::vector<Mhz> levels;
  std::vector<int> seg_level(segments.size());
  for (size_t s = 0; s < segments.size(); s++) {
    const auto [i, jj] = segments[s];
    const double mean = (ps[jj + 1] - ps[i]) / static_cast<double>(jj - i + 1);
    levels.push_back(QuantizeNearestToGrid(Mhz{mean}, step_mhz));
  }
  // Merge duplicate grid-rounded levels.
  std::vector<Mhz> unique_levels;
  for (size_t s = 0; s < segments.size(); s++) {
    auto it = std::find(unique_levels.begin(), unique_levels.end(), levels[s]);
    if (it == unique_levels.end()) {
      unique_levels.push_back(levels[s]);
      seg_level[s] = static_cast<int>(unique_levels.size()) - 1;
    } else {
      seg_level[s] = static_cast<int>(it - unique_levels.begin());
    }
  }
  // Sort descending and remap.
  std::vector<Mhz> sorted_levels = unique_levels;
  std::sort(sorted_levels.begin(), sorted_levels.end(), std::greater<>());
  auto remap = [&](int old_idx) {
    const Mhz v{unique_levels[static_cast<size_t>(old_idx)]};
    return static_cast<int>(std::find(sorted_levels.begin(), sorted_levels.end(), v) -
                            sorted_levels.begin());
  };

  out.levels = sorted_levels;
  out.assignment.assign(n, 0);
  double sse = 0.0;
  for (size_t s = 0; s < segments.size(); s++) {
    const auto [i, jj] = segments[s];
    const int level_idx = remap(seg_level[s]);
    const double level = AsResourceUnits(sorted_levels[static_cast<size_t>(level_idx)]);
    for (size_t t = i; t <= jj; t++) {
      out.assignment[order[t]] = level_idx;
      sse += (x[t] - level) * (x[t] - level);
    }
  }
  out.sse = sse;
  return out;
}

PStateSelection SelectPStatesNaive(const std::vector<Mhz>& targets, int k, Mhz step_mhz) {
  PStateSelection out;
  const size_t n = targets.size();
  if (n == 0) {
    return out;
  }
  const auto [lo_it, hi_it] = std::minmax_element(targets.begin(), targets.end());
  const Mhz lo{*lo_it};
  const Mhz hi{*hi_it};
  const Mhz band = std::max((hi - lo) / k, Mhz{1e-9});

  std::vector<Mhz> band_level(static_cast<size_t>(k));
  for (int b = 0; b < k; b++) {
    band_level[static_cast<size_t>(b)] = QuantizeNearestToGrid(lo + band * (b + 0.5), step_mhz);
  }

  // Deduplicate levels, keep descending order for slot semantics.
  std::vector<Mhz> levels = band_level;
  std::sort(levels.begin(), levels.end(), std::greater<>());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  out.levels = levels;
  out.assignment.assign(n, 0);
  for (size_t i = 0; i < n; i++) {
    int b = static_cast<int>((targets[i] - lo) / band);
    b = std::clamp(b, 0, k - 1);
    const Mhz level{band_level[static_cast<size_t>(b)]};
    const auto it = std::find(levels.begin(), levels.end(), level);
    out.assignment[i] = static_cast<int>(it - levels.begin());
    const double dev = AsResourceUnits(targets[i] - level);
    out.sse += dev * dev;
  }
  return out;
}

}  // namespace papd
