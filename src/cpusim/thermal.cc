#include "src/cpusim/thermal.h"

#include <algorithm>
#include <cmath>

namespace papd {

ThermalModel::ThermalModel(ThermalParams params, int num_cores)
    : params_(params),
      temps_(static_cast<size_t>(num_cores), params.ambient_c),
      targets_(static_cast<size_t>(num_cores), params.ambient_c),
      max_temp_c_(params.ambient_c) {}

double ThermalModel::Alpha(Seconds dt) {
  // dt is the fixed simulator tick in practice; memoize the exp().
  if (dt != alpha_dt_) {
    alpha_dt_ = dt;
    alpha_ = 1.0 - std::exp(-dt / params_.tau_s);
  }
  return alpha_;
}

void ThermalModel::SetPower(const std::vector<Watts>& core_w, Watts uncore_w) {
  // Total from uncore, then cores in index order (the pinned association).
  Watts total{uncore_w};
  for (Watts w : core_w) {
    total += w;
  }
  for (size_t i = 0; i < targets_.size(); i++) {
    const Watts own{i < core_w.size() ? core_w[i] : Watts{0.0}};
    const Watts effective{own + params_.spread_fraction * (total - own)};
    targets_[i] = params_.ambient_c + params_.r_core_c_per_w * effective.value();
  }
}

void ThermalModel::Update(const std::vector<Watts>& core_w, Watts uncore_w, Seconds dt) {
  SetPower(core_w, uncore_w);
  const double alpha = Alpha(dt);
  Celsius max = params_.ambient_c;
  for (size_t i = 0; i < temps_.size(); i++) {
    temps_[i] = RelaxedTemp(temps_[i], targets_[i], alpha);
    max = std::max(max, temps_[i]);
  }
  max_temp_c_ = max;
}

void ThermalModel::UpdateSteady(const std::vector<Watts>& core_w, Watts uncore_w, Seconds dt,
                                int ticks) {
  SetPower(core_w, uncore_w);
  // k ticks of T += alpha * (target - T) with constant power compound to
  // T = target + (T - target) * (1 - alpha)^k.
  const double decay = std::pow(1.0 - Alpha(dt), static_cast<double>(ticks));
  Celsius max = params_.ambient_c;
  for (size_t i = 0; i < temps_.size(); i++) {
    temps_[i] = targets_[i] + (temps_[i] - targets_[i]) * decay;
    max = std::max(max, temps_[i]);
  }
  max_temp_c_ = max;
}

}  // namespace papd
