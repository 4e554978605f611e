#include "linalg/lu.hpp"

#include <cassert>
#include <cmath>

namespace tags::linalg {

LuFactorization lu_factor(DenseMatrix a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  LuFactorization f;
  f.piv_.resize(n);

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest entry in column k at/below row k.
    std::size_t p = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    f.piv_[k] = p;
    if (best == 0.0) {
      f.singular_ = true;
      // Leave the zero pivot in place; remaining columns are still processed
      // so the factor stays well-formed for diagnostics.
      continue;
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
    }
    const double inv_pivot = 1.0 / a(k, k);
    // The zero-multiplier skip keeps banded matrices near-linear.
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = a(i, k) * inv_pivot;
      a(i, k) = lik;
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= lik * a(k, j);
    }
  }
  f.lu_ = std::move(a);
  return f;
}

Vec LuFactorization::solve(std::span<const double> b) const {
  Vec x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void LuFactorization::solve_in_place(std::span<double> x) const {
  assert(!singular_);
  const std::size_t n = dim();
  assert(x.size() == n);
  // Apply the row permutation.
  for (std::size_t k = 0; k < n; ++k) {
    if (piv_[k] != k) std::swap(x[k], x[piv_[k]]);
  }
  // Forward substitution with unit-diagonal L.
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
}

Vec LuFactorization::solve_transpose(std::span<const double> b) const {
  assert(!singular_);
  const std::size_t n = dim();
  assert(b.size() == n);
  Vec x(b.begin(), b.end());
  // A = P^{-1} L U  =>  A^T = U^T L^T P. Solve U^T y = b, L^T z = y, x = P^{-1} z.
  // Forward substitution with U^T (lower triangular, non-unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * x[j];
    x[i] = acc / lu_(i, i);
  }
  // Back substitution with L^T (upper triangular, unit diagonal).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * x[j];
    x[ii] = acc;
  }
  // Undo pivoting: x = P^T z means applying swaps in reverse order.
  for (std::size_t kk = n; kk-- > 0;) {
    if (piv_[kk] != kk) std::swap(x[kk], x[piv_[kk]]);
  }
  return x;
}

double LuFactorization::log_abs_det() const noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) acc += std::log(std::abs(lu_(i, i)));
  return acc;
}

Vec lu_solve(const DenseMatrix& a, std::span<const double> b) {
  const LuFactorization f = lu_factor(a);
  assert(!f.singular());
  return f.solve(b);
}

DenseMatrix lu_inverse(const DenseMatrix& a) {
  const std::size_t n = a.rows();
  const LuFactorization f = lu_factor(a);
  assert(!f.singular());
  DenseMatrix inv(n, n);
  Vec e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    const Vec col = f.solve(e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
    e[j] = 0.0;
  }
  return inv;
}

}  // namespace tags::linalg
