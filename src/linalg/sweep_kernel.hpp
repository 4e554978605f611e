// The Gauss-Seidel relaxation sweep as a reusable row-range kernel, shared
// by the full-matrix solver (linalg/gauss_seidel.cpp) and the NCD
// disaggregation phase (linalg/ncd.cpp). Restricting the sweep to rows
// [lo, hi) while reading the whole of x is exactly the censored block
// update the aggregation-disaggregation solver needs: entries outside the
// range act as fixed boundary inflow. Internal to src/linalg.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "linalg/csr.hpp"

namespace tags::linalg::detail {

/// First row in [lo, hi) whose diagonal entry is exactly zero, or -1 when
/// none. The shared zero-diagonal bailout: a sweep through such a row
/// divides by zero and the resulting inf/NaN poisons every later update,
/// so callers must check before the first sweep and fail explicitly.
[[nodiscard]] inline index_t find_zero_diagonal(std::span<const double> diag,
                                                index_t lo, index_t hi) noexcept {
  for (index_t i = lo; i < hi; ++i) {
    if (diag[static_cast<std::size_t>(i)] == 0.0) return i;
  }
  return -1;
}

/// One Gauss-Seidel sweep over rows [lo, hi) of A (CSR) for the system
/// A x = b, updating x in place. Entries of x outside [lo, hi) are read
/// but never written — updated rows see each other's new values (classic
/// GS), boundary rows keep their current values. Returns the largest
/// absolute update, the solver's cheap stagnation proxy.
inline double gs_sweep_range(const CsrMatrix& a, std::span<const double> b,
                             std::span<double> x, std::span<const double> diag,
                             index_t lo, index_t hi) noexcept {
  double max_update = 0.0;
  for (index_t i = lo; i < hi; ++i) {
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    const std::size_t ii = static_cast<std::size_t>(i);
    double off = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] != i) off += vs[k] * x[static_cast<std::size_t>(cs[k])];
    }
    const double next = (b[ii] - off) / diag[ii];
    max_update = std::max(max_update, std::abs(next - x[ii]));
    x[ii] = next;
  }
  return max_update;
}

}  // namespace tags::linalg::detail
