#include "linalg/inflow_rows.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
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

InflowRows::InflowRows(const CsrMatrix& qt, std::span<const index_t> block_of)
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
  list_cross_entries(block_of);
}

void InflowRows::list_cross_entries(std::span<const index_t> block_of) {
  if (block_of.empty()) return;
  assert(block_of.size() == inv_exit_.size());
  const auto blocks =
      static_cast<std::size_t>(*std::max_element(block_of.begin(), block_of.end())) + 1;
  // The coarse solve costs about blocks^3 / 3 multiply-adds, which run
  // several times faster than a sweep's dependent chain of one per stored
  // entry; past this bound a step would cost more than a few sweeps.
  constexpr std::size_t kCoarseFlopsPerEntry = 64;
  if (blocks < 2 || blocks * blocks * blocks > kCoarseFlopsPerEntry * col_.size()) return;
  assert(col_.size() <= std::numeric_limits<std::uint32_t>::max() &&
         blocks * blocks <= std::numeric_limits<std::uint32_t>::max());
  blocks_ = blocks;
  block_of_.assign(block_of.begin(), block_of.end());
  for (std::size_t j = 0; j < block_of_.size(); ++j) {
    const std::uint32_t to = block_of_[j];
    for (std::size_t k = start_[j]; k < start_[j + 1]; ++k) {
      const std::uint32_t from = block_of_[col_[k]];
      if (from == to) continue;
      cross_pos_.push_back(static_cast<std::uint32_t>(k));
      cross_cell_.push_back(static_cast<std::uint32_t>(from * blocks_ + to));
    }
  }
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

double InflowRows::coarse_solve(const Vec& pi, CoarseWork& work) const {
  assert(blocks_ > 0);
  const std::size_t nb = blocks_;
  work.mass.assign(nb, 0.0);
  for (std::size_t i = 0; i < block_of_.size(); ++i) work.mass[block_of_[i]] += pi[i];
  for (const double m : work.mass) {
    if (!(m > 0.0)) return -1.0;
  }
  // A, row-major: the flows pi_i q_ij summed into cell (I, J), then row I
  // divided by m_I. The diagonal cells hold no flow and are never read.
  work.a.assign(nb * nb, 0.0);
  double* a = work.a.data();
  for (std::size_t e = 0; e < cross_pos_.size(); ++e) {
    const std::uint32_t k = cross_pos_[e];
    a[cross_cell_[e]] += val_[k] * pi[col_[k]];
  }
  for (std::size_t from = 0; from < nb; ++from) {
    for (std::size_t to = 0; to < nb; ++to) a[from * nb + to] /= work.mass[from];
  }
  // xi A = 0 by the GTH form of Gaussian elimination: blocks nb-1 .. 1 are
  // censored out in turn, each folding its outflow into the blocks below
  // it. There are no subtractions, so every xi_I keeps its relative
  // accuracy, down to the blocks of mass 1e-9 and less that rare timeouts
  // leave at node 2.
  for (std::size_t k = nb; k-- > 1;) {
    const double* row_k = a + k * nb;
    double out = 0.0;
    for (std::size_t j = 0; j < k; ++j) out += row_k[j];
    if (!(out > 0.0)) return -1.0;  // block k cannot reach the blocks below it
    for (std::size_t i = 0; i < k; ++i) {
      double* row_i = a + i * nb;
      const double f = row_i[k] / out;
      row_i[k] = f;
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) row_i[j] += f * row_k[j];
    }
  }
  work.scale.assign(nb, 0.0);
  double* xi = work.scale.data();
  xi[0] = 1.0;
  double total = 1.0;
  for (std::size_t j = 1; j < nb; ++j) {
    double v = 0.0;
    for (std::size_t i = 0; i < j; ++i) v += xi[i] * a[i * nb + j];
    xi[j] = v;
    total += v;
  }
  double move = 0.0;
  for (std::size_t b = 0; b < nb; ++b) {
    xi[b] = xi[b] / total / work.mass[b];
    if (!(xi[b] > 0.0) || !std::isfinite(xi[b])) return -1.0;
    move = std::max(move, std::abs(xi[b] - 1.0));
  }
  return move;
}

void InflowRows::rescale(Vec& pi, const CoarseWork& work) const noexcept {
  for (std::size_t i = 0; i < block_of_.size(); ++i) pi[i] *= work.scale[block_of_[i]];
}

}  // namespace tags::linalg
