// Compressed sparse row matrix: the workhorse format for CTMC generators.
// Rows are column-sorted with duplicates summed, which the relaxation
// solvers (Jacobi/Gauss-Seidel) rely on for fast diagonal lookup.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "linalg/coo.hpp"
#include "linalg/dense.hpp"
#include "linalg/vector_ops.hpp"

namespace tags::linalg {

class InflowRows;

class CsrMatrix {
 public:
  CsrMatrix() = default;
  // The cached transpose (see transpose_cache below) is per-instance
  // scratch, not value state: copies start cold, moves steal it. The
  // partition is structure and travels with the pattern.
  CsrMatrix(const CsrMatrix& other);
  CsrMatrix& operator=(const CsrMatrix& other);
  CsrMatrix(CsrMatrix&& other) noexcept;
  CsrMatrix& operator=(CsrMatrix&& other) noexcept;
  ~CsrMatrix();

  /// Build from a COO buffer: sorts each row by column and sums duplicates.
  /// Entries that sum to exactly zero are kept (structural zeros are cheap
  /// and dropping them would complicate generator diagonals).
  [[nodiscard]] static CsrMatrix from_coo(const CooMatrix& coo);

  /// Build from a dense matrix, dropping exact zeros.
  [[nodiscard]] static CsrMatrix from_dense(const DenseMatrix& dense);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return val_.size(); }

  /// y = A x.
  void multiply(std::span<const double> x, std::span<double> y) const noexcept;

  /// y = A^T x, as a row gather on the cached transpose.
  void multiply_transpose(std::span<const double> x, std::span<double> y) const;

  /// Explicit transpose (linear time). Fresh copy; solver loops should use
  /// transpose_cache() instead.
  [[nodiscard]] CsrMatrix transposed() const;

  /// The transpose of this matrix, built on first use and cached. Rate
  /// rebinding through CsrBuilderAccess::values invalidates only the cached
  /// *values* (the sparsity pattern is frozen), so a refresh is a single
  /// permuted gather, not a rebuild. Concurrent readers may race to build
  /// the cache (one wins, the others discard); refreshing after a rebind
  /// requires the same external synchronisation the rebind itself does.
  /// The reference stays valid for the lifetime of this matrix.
  [[nodiscard]] const CsrMatrix& transpose_cache() const;

  /// The Gauss-Seidel solver's diagonal-free copy of the transpose (see
  /// linalg/inflow_rows.hpp), cached with it: built on first use and, after
  /// a rate rebind, refreshed in place from the refreshed transpose. The
  /// same synchronisation rules as transpose_cache apply.
  [[nodiscard]] const InflowRows& inflow_cache() const;

  /// The block id of every state, for the two-level Gauss-Seidel solve, or
  /// empty when the chain's builder supplied none. Structural, like the
  /// pattern: set through CsrBuilderAccess, kept by copies and rebinds.
  [[nodiscard]] std::span<const index_t> partition() const noexcept { return partition_; }

  /// Vector of diagonal entries (zero where absent).
  [[nodiscard]] Vec diagonal() const;

  /// Row i as parallel spans of column indices and values.
  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const noexcept {
    return {col_.data() + row_ptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i) + 1] -
                                     row_ptr_[static_cast<std::size_t>(i)])};
  }
  [[nodiscard]] std::span<const double> row_vals(index_t i) const noexcept {
    return {val_.data() + row_ptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i) + 1] -
                                     row_ptr_[static_cast<std::size_t>(i)])};
  }

  /// Entry lookup by binary search within the row; zero if absent.
  [[nodiscard]] double at(index_t i, index_t j) const noexcept;

  /// Densify (testing/small matrices only).
  [[nodiscard]] DenseMatrix to_dense() const;

  /// Residual max-norm ||b - A x||_inf, allocation-free given scratch.
  [[nodiscard]] double residual_inf(std::span<const double> x,
                                    std::span<const double> b,
                                    std::span<double> scratch) const noexcept;

 private:
  struct TransposeCache;  // defined in csr.cpp

  /// Mark the cached transpose's values stale (pattern is unchanged). Called
  /// by CsrBuilderAccess when handing out the mutable value array.
  void invalidate_transpose_cache() const noexcept;

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_;  // size rows_+1
  std::vector<index_t> col_;
  std::vector<double> val_;
  std::vector<index_t> partition_;  // empty, or one block id per row
  mutable std::atomic<TransposeCache*> tcache_{nullptr};

  friend class CsrBuilderAccess;
};

}  // namespace tags::linalg
