// Transient analysis by uniformization (Jensen's method):
//   pi(t) = sum_k Poisson(Lambda t; k) * pi(0) P^k,  P = I + Q / Lambda.
//
// Poisson weights come from the stable Fox-Glynn computation (fox_glynn.hpp):
// mode-centred with left/right truncation at relative mass truncation_eps,
// so Lambda*t up to ~1e6 is handled in one step without the underflow that
// breaks the naive e^{-q} recurrence past q ~ 745. Horizons beyond
// max_step_jumps are still split (bounding the weight window and the error
// accumulated by repeated SpMVs); every returned distribution is certified
// (finite, probability mass within bound) and failures are counted under
// numerics.uniformization.*.
#pragma once

#include "ctmc/ctmc.hpp"
#include "linalg/certify.hpp"
#include "linalg/vector_ops.hpp"

namespace tags::ctmc {

struct TransientOptions {
  double truncation_eps = 1e-13;  ///< tail mass dropped from the Poisson series
  /// Split horizons so Lambda*step <= this. With Fox-Glynn weights any step
  /// size is stable; the cap only bounds the per-step weight window.
  double max_step_jumps = 1.0e5;
};

/// Transient distribution plus its certificate. `steps` counts the
/// uniformization steps taken (splits included).
struct TransientResult {
  linalg::Vec pi;
  linalg::Certificate certificate;
  int steps = 0;
};

/// Distribution at time t starting from pi0 (must sum to 1), stamped with a
/// certification (finiteness + probability mass) and recorded in the obs
/// solve log as context "transient".
[[nodiscard]] TransientResult transient_distribution_certified(
    const Ctmc& chain, const linalg::Vec& pi0, double t,
    const TransientOptions& opts = {});

/// Distribution at time t starting from pi0 (must sum to 1). Convenience
/// wrapper over the certified variant; certification failures are still
/// counted, the certificate is just not returned.
[[nodiscard]] linalg::Vec transient_distribution(const Ctmc& chain,
                                                 const linalg::Vec& pi0, double t,
                                                 const TransientOptions& opts = {});

/// Distribution at each of the (ascending) time points. Reuses work across
/// points by stepping from one to the next; every emitted point is
/// certified (counted under numerics.certify.*).
[[nodiscard]] std::vector<linalg::Vec> transient_trajectory(
    const Ctmc& chain, const linalg::Vec& pi0, const std::vector<double>& times,
    const TransientOptions& opts = {});

}  // namespace tags::ctmc
