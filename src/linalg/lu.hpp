// LU factorisation with partial pivoting. Used as the reference direct
// solver for small CTMCs and for phase-type moment computations.
#pragma once

#include <span>
#include <vector>

#include "linalg/dense.hpp"

namespace tags::linalg {

/// Result of lu_factor(). Holds L and U packed in one matrix plus the pivot
/// permutation; solve() does the forward/back substitution.
class LuFactorization {
 public:
  LuFactorization() = default;

  [[nodiscard]] bool singular() const noexcept { return singular_; }
  [[nodiscard]] std::size_t dim() const noexcept { return lu_.rows(); }

  /// Solve A x = b. Returns the solution; b is untouched.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// In-place variant: x holds b on entry, the solution on exit.
  void solve_in_place(std::span<double> x) const;

  /// Solve A^T x = b (useful for stationary distributions pi A = 0).
  [[nodiscard]] Vec solve_transpose(std::span<const double> b) const;

  /// log|det A|; meaningful only when not singular.
  [[nodiscard]] double log_abs_det() const noexcept;

  friend LuFactorization lu_factor(DenseMatrix a);
  // The batched factorisation (linalg/batch.hpp) eliminates W matrices in
  // lockstep and hands back per-lane scalar factorizations; extraction
  // needs to populate the private state directly.
  friend class BatchLuFactorization;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> piv_;  // piv_[k] = row swapped into position k
  bool singular_ = false;
};

/// Factor a (copied) square matrix. Singular inputs are flagged rather than
/// throwing; callers must check singular() before solve().
[[nodiscard]] LuFactorization lu_factor(DenseMatrix a);

/// Convenience: solve A x = b directly (factors internally).
[[nodiscard]] Vec lu_solve(const DenseMatrix& a, std::span<const double> b);

/// Dense inverse via LU; asserts on singular input. Small matrices only.
[[nodiscard]] DenseMatrix lu_inverse(const DenseMatrix& a);

}  // namespace tags::linalg
