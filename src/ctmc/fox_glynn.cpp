#include "ctmc/fox_glynn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/vector_ops.hpp"
#include "obs/obs.hpp"

namespace tags::ctmc {

namespace {

/// log(e^{-q} q^k / k!) in extended precision: the three terms are each
/// O(q) and cancel to O(log q), so the anchor's absolute error is set by
/// lgamma's ulp at magnitude q — long double keeps that below ~1e-13 even
/// at q = 1e6.
long double log_poisson_pmf(long double q, long double k) {
  return -q + k * std::log(q) - std::lgamma(k + 1.0L);
}

}  // namespace

FoxGlynnWeights fox_glynn(double q, double eps) {
  assert(q >= 0.0 && std::isfinite(q));
  assert(eps > 0.0 && eps < 1.0);
  obs::count("numerics.fox_glynn.calls");
  FoxGlynnWeights fg;

  if (q == 0.0) {
    fg.left = fg.right = 0;
    fg.weights = {1.0};
    fg.total_weight = 1.0;
    fg.ok = true;
    return fg;
  }

  const auto mode = static_cast<std::size_t>(q);  // floor: q > 0
  const double w_mode = static_cast<double>(
      std::exp(log_poisson_pmf(static_cast<long double>(q),
                               static_cast<long double>(mode))));

  // Truncation threshold. Terms at the stopping point sit several standard
  // deviations out, where consecutive ratios are bounded away from 1, so
  // the dropped tail is a geometric series of effective length O(sqrt(q));
  // dividing eps by that width keeps the provable tail mass below eps at
  // the cost of a marginally wider window.
  const double cutoff = eps / (100.0 * (std::sqrt(q) + 1.0));

  // Walk down from the mode: w_{k-1} = w_k * k / q.
  std::vector<double> down;  // weights at mode, mode-1, ...
  double w = w_mode;
  std::size_t k = mode;
  for (;;) {
    down.push_back(w);
    if (k == 0 || w < cutoff) break;
    w *= static_cast<double>(k) / q;
    --k;
  }
  fg.left = k;

  // Walk up from the mode: w_{k+1} = w_k * q / (k+1).
  std::vector<double> up;  // weights at mode+1, mode+2, ...
  w = w_mode;
  k = mode;
  // Hard stop far outside any plausible window (guards eps ~ 1 misuse).
  const std::size_t k_max =
      mode + 20 + static_cast<std::size_t>(20.0 * std::sqrt(q) +
                                           10.0 * std::log1p(1.0 / eps));
  while (k < k_max) {
    ++k;
    w *= q / static_cast<double>(k);
    if (w < cutoff && k > static_cast<std::size_t>(q)) break;
    up.push_back(w);
  }
  fg.right = fg.left + (down.size() - 1) + up.size();

  fg.weights.resize(down.size() + up.size());
  std::copy(down.rbegin(), down.rend(), fg.weights.begin());
  std::copy(up.begin(), up.end(),
            fg.weights.begin() + static_cast<std::ptrdiff_t>(down.size()));

  // The raw total certifies the computation: truncation loses at most eps
  // and the anchor is good to ~1e-13, so anything outside the bound below
  // means underflow or a logic error, not rounding. The returned weights
  // are then normalised by the total (Fox-Glynn's W-division), which
  // cancels the anchor's common scale error — the weights are accurate to
  // the recurrence's accumulated rounding, and their mass is exactly the
  // window's.
  fg.total_weight = linalg::sum_compensated(fg.weights);
  fg.ok = std::isfinite(fg.total_weight) &&
          std::abs(1.0 - fg.total_weight) <= std::max(10.0 * eps, 1e-9);
  if (fg.ok) {
    const double inv = 1.0 / fg.total_weight;
    for (double& v : fg.weights) v *= inv;
  } else {
    obs::count("numerics.fox_glynn.mass_failures");
  }
  return fg;
}

}  // namespace tags::ctmc
