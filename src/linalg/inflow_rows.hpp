// What a steady-state Gauss-Seidel solve reads: Q^T without its diagonal.
// Row j holds the inflow terms q_ij (i != j) in the transpose's column
// order, with 32-bit column indices, and inv_exit[j] is 1/exit_j, or 0 for
// a row with no exit rate. A sweep is bound by the chain of dependent
// operations from one row's update to the next row's read, so the copy
// drops the diagonal test and the divide from that chain; the sums run in
// the same order as over Q^T itself. The residual checks read the copy
// too, with each row's diagonal term put back at its place in the row, so
// a solve reads Q^T only to certify. In between, its working set is the
// copy and three n-vectors: 1.3 MB on the paper's 12831-state chains,
// which fits a 2 MB L2 cache. Checking on Q^T itself adds its 1.3 MB to
// that, and each check then pushes the copy out to the shared cache levels.
//
// The copy is cached next to the generator's transpose (see
// CsrMatrix::inflow_cache): built on a generator's first Gauss-Seidel
// solve, and after a rate rebind refreshed in place from the refreshed
// transpose, so the same values land in the same slots.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/csr.hpp"

namespace tags::linalg {

class InflowRows {
 public:
  /// Build the pattern and values from `qt`, a generator's transpose.
  explicit InflowRows(const CsrMatrix& qt);

  /// Rewrite the values, diagonal and 1/exit from `qt`, a transpose with
  /// the pattern this copy was built from (a rate rebind's new values).
  void refresh(const CsrMatrix& qt) noexcept;

  /// pi_j = sum_{i != j} pi_i q_ij / exit_j for every row, descending when
  /// `backward`. A row with no exit rate keeps its value.
  void sweep(Vec& pi, bool backward) const noexcept;

  /// ||pi Q||_inf via y = Q^T pi, bit for bit as a multiply over Q^T
  /// computes it: row j's diagonal term q_jj pi_j joins the sum at the
  /// diagonal's place in the row. A row with no exit rate has q_jj = 0 and
  /// keeps a finite pi_j, so its term cannot move |y_j| and is left out.
  [[nodiscard]] double residual(const Vec& pi, Vec& y) const noexcept;

 private:
  std::vector<std::size_t> start_;   // row j is [start_[j], start_[j + 1])
  std::vector<std::uint32_t> diag_;  // row j's diagonal sits before entry start_[j] + diag_[j]
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
  Vec q_diag_;    // q_jj (0 where the pattern has no diagonal entry)
  Vec inv_exit_;  // 1 / -q_jj, or 0 for a row with no exit rate
};

}  // namespace tags::linalg
