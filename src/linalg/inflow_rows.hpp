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
//
// Two-level step. When the generator carries a partition of its states
// (CsrMatrix::partition), the copy also lists where its inter-block
// entries sit, once per pattern; they are the only entries the coarse
// solve reads, so a rebind's refresh of the values serves it too. With
// block masses m_I = sum_{i in I} pi_i, the coarse generator
//   A_IJ = sum_{i in I} (pi_i / m_I) sum_{j in J} q_ij   (I != J),
//   A_II = -sum_{J != I} A_IJ
// is what the chain looks like from the blocks if pi is right within each
// of them (Courtois's aggregation). Its stationary vector xi, solved by
// dense Gaussian elimination, gives every block its mass in one step:
// pi_i <- pi_i xi_I / m_I.
// A sweep moves probability between blocks only a little when the chain's
// slow mode runs between them, as it does over the node-2 states of the
// paper's H2 chains, where long jobs hold node 2 for a long time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr.hpp"

namespace tags::linalg {

/// The two-level step's workspace, sized on a solve's first step: later
/// steps of the solve allocate nothing.
struct CoarseWork {
  Vec a;      ///< the coarse generator, row-major, eliminated in place
  Vec mass;   ///< m_I
  Vec scale;  ///< xi_I / m_I
};

class InflowRows {
 public:
  /// Build the pattern and values from `qt`, a generator's transpose, and
  /// list the inter-block entries of `block_of`, the generator's partition
  /// (empty for none).
  InflowRows(const CsrMatrix& qt, std::span<const index_t> block_of);

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

  /// Blocks the two-level step aggregates over: 0 when the generator has
  /// no partition, or one whose coarse solve would cost more than a few
  /// sweeps, so the solve sweeps on its own.
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }

  /// The coarse solve of a two-level step on pi (normalised), leaving
  /// xi_I / m_I in work.scale. Returns the largest relative change of a
  /// block's mass, max_I |xi_I / m_I - 1|, or -1 when the step cannot be
  /// taken: a block without mass, or a coarse chain that is not
  /// irreducible at pi's weights. Serial, in a fixed order. Requires
  /// blocks() > 0.
  [[nodiscard]] double coarse_solve(const Vec& pi, CoarseWork& work) const;

  /// pi_i <- pi_i xi_I / m_I with the scales of the last coarse_solve.
  void rescale(Vec& pi, const CoarseWork& work) const noexcept;

 private:
  void list_cross_entries(std::span<const index_t> block_of);

  std::vector<std::size_t> start_;   // row j is [start_[j], start_[j + 1])
  std::vector<std::uint32_t> diag_;  // row j's diagonal sits before entry start_[j] + diag_[j]
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
  Vec q_diag_;    // q_jj (0 where the pattern has no diagonal entry)
  Vec inv_exit_;  // 1 / -q_jj, or 0 for a row with no exit rate
  // The two-level step's structure (empty when blocks_ == 0).
  std::size_t blocks_ = 0;
  std::vector<std::uint32_t> block_of_;
  std::vector<std::uint32_t> cross_pos_;   // inter-block entries: slots in col_/val_
  std::vector<std::uint32_t> cross_cell_;  // I * blocks_ + J: entry q_ij of row j, i in I, j in J
};

}  // namespace tags::linalg
