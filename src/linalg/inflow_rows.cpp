#include "linalg/inflow_rows.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tags::linalg {

namespace {

/// The arrays a sweep reads, as pointers held in locals. A store to pi
/// cannot change a local, so the pointers stay in registers from row to
/// row; read through the vectors, each row reloads them after its store.
struct SweepView {
  const std::size_t* start;
  const std::uint32_t* col;
  const double* val;
  const double* inv_exit;

  void relax(std::size_t j, double* pi) const noexcept {
    const double ie = inv_exit[j];
    if (ie == 0.0) return;  // absorbing; caller should have checked
    double inflow = 0.0;
    for (std::size_t k = start[j]; k < start[j + 1]; ++k) inflow += val[k] * pi[col[k]];
    pi[j] = inflow * ie;
  }
};

}  // namespace

InflowRows::InflowRows(const CsrMatrix& qt)
    : start_(static_cast<std::size_t>(qt.rows()) + 1),
      diag_(static_cast<std::size_t>(qt.rows())),
      q_diag_(static_cast<std::size_t>(qt.rows())),
      inv_exit_(static_cast<std::size_t>(qt.rows())) {
  assert(qt.rows() <= std::numeric_limits<std::uint32_t>::max());
  col_.reserve(qt.nnz());
  for (index_t j = 0; j < qt.rows(); ++j) {
    const auto cs = qt.row_cols(j);
    const std::size_t ju = static_cast<std::size_t>(j);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] == j) {
        diag_[ju] = static_cast<std::uint32_t>(col_.size() - start_[ju]);
        continue;
      }
      col_.push_back(static_cast<std::uint32_t>(cs[k]));
    }
    start_[ju + 1] = col_.size();
  }
  val_.resize(col_.size());
  refresh(qt);
}

void InflowRows::refresh(const CsrMatrix& qt) noexcept {
  const std::size_t n = inv_exit_.size();
  for (std::size_t j = 0; j < n; ++j) {
    const auto vs = qt.row_vals(static_cast<index_t>(j));
    double* out = val_.data() + start_[j];
    if (vs.size() == start_[j + 1] - start_[j]) {  // no diagonal entry
      std::copy(vs.begin(), vs.end(), out);
      q_diag_[j] = 0.0;
    } else {
      const std::size_t d = diag_[j];
      std::copy(vs.begin(), vs.begin() + d, out);
      std::copy(vs.begin() + d + 1, vs.end(), out + d);
      q_diag_[j] = vs[d];
    }
    const double exit = -q_diag_[j];
    inv_exit_[j] = exit == 0.0 ? 0.0 : 1.0 / exit;
  }
}

void InflowRows::sweep(Vec& pi, bool backward) const noexcept {
  const SweepView rows{start_.data(), col_.data(), val_.data(), inv_exit_.data()};
  double* x = pi.data();
  const std::size_t n = inv_exit_.size();
  if (backward) {
    for (std::size_t j = n; j-- > 0;) rows.relax(j, x);
  } else {
    for (std::size_t j = 0; j < n; ++j) rows.relax(j, x);
  }
}

double InflowRows::residual(const Vec& pi, Vec& y) const noexcept {
  // Pointers in locals, as in sweep: the stores to y leave them in registers.
  const std::size_t* start = start_.data();
  const std::uint32_t* diag = diag_.data();
  const std::uint32_t* col = col_.data();
  const double* val = val_.data();
  const double* q_diag = q_diag_.data();
  const double* x = pi.data();
  double* out = y.data();
  const std::size_t n = inv_exit_.size();
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t k = start[j];
    double acc = 0.0;
    if (q_diag[j] != 0.0) {
      for (const std::size_t d = k + diag[j]; k < d; ++k) acc += val[k] * x[col[k]];
      acc += q_diag[j] * x[j];
    }
    for (; k < start[j + 1]; ++k) acc += val[k] * x[col[k]];
    out[j] = acc;
  }
  return nrm_inf(y);
}

}  // namespace tags::linalg
