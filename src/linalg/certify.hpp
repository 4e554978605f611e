// Result certification: every solve that feeds a results table carries a
// Certificate stating what was actually verified — entries finite, true
// residual recomputed and bounded, probability mass within tolerance, and
// (on the dense-LU path) a Hager-style 1-norm condition estimate. A
// certificate is evidence, not a convergence flag: the residual is
// recomputed from the matrix and the returned vector, never copied from
// the solver's own bookkeeping, so a solver that silently lost error
// control fails certification even when its internal state says converged.
//
// Certification checks and failures are counted under "numerics.certify.*";
// failed_check() names the first failed predicate.
#pragma once

#include <span>
#include <string>

#include "linalg/csr.hpp"
#include "linalg/lu.hpp"
#include "linalg/vector_ops.hpp"

namespace tags::linalg {

struct CertifyOptions {
  /// Bound on the recomputed residual ||b - A x||_inf (caller pre-scales by
  /// the natural problem scale, e.g. the max exit rate of a generator).
  double residual_bound = 1e-8;
  /// Bound on |1 - sum(x)| for probability vectors.
  double mass_bound = 1e-9;
  /// Check probability mass at all (off for general linear systems).
  bool check_mass = true;
  /// Condition estimates above this fail certification: at ~1e14 a double
  /// solve retains no trustworthy digits. 0 disables the check.
  double condition_limit = 1e14;
};

/// What was verified about one solution vector. Produced by the certify_*
/// passes below; stamped onto SteadyStateResult / TransientResult by the
/// ctmc layer.
struct Certificate {
  bool finite = false;       ///< every entry finite (and non-negative slack for pi)
  bool residual_ok = false;  ///< recomputed residual within bound
  bool mass_ok = false;      ///< |1 - sum(x)| within bound (true when unchecked)
  bool condition_ok = true;  ///< condition estimate within limit (true when not estimated)
  double residual = 0.0;     ///< the recomputed ||b - A x||_inf
  double mass_error = 0.0;   ///< |1 - sum(x)| (compensated sum)
  /// Hager 1-norm condition estimate cond_1(A); 0 when not computed (the
  /// estimate needs a factorization, so only the dense-LU path fills it).
  double condition = 0.0;

  [[nodiscard]] bool ok() const noexcept {
    return finite && residual_ok && mass_ok && condition_ok;
  }
  /// Name of the first failed check ("" when ok) — for diagnostics.
  [[nodiscard]] const char* failed_check() const noexcept;
};

/// Certify x as a solution of A x = b: recompute the true residual with one
/// SpMV, guard non-finite entries, and (optionally) check probability mass.
/// `condition` is a pre-computed condition estimate for A (0 when none was
/// computed) — it is recorded on the certificate and checked against
/// condition_limit. Counts numerics.certify.checks / .failures.
[[nodiscard]] Certificate certify_solution(const CsrMatrix& a, std::span<const double> x,
                                           std::span<const double> b,
                                           const CertifyOptions& opts,
                                           double condition = 0.0);

/// Certify a probability vector alone (no residual available): finiteness
/// plus mass. Used for transient distributions, where the "residual" is the
/// truncation error already bounded by Fox-Glynn.
[[nodiscard]] Certificate certify_distribution(std::span<const double> pi,
                                               const CertifyOptions& opts);

/// ||A||_1 (max absolute column sum).
[[nodiscard]] double norm1(const DenseMatrix& a) noexcept;
[[nodiscard]] double norm1(const CsrMatrix& a);

/// Hager's 1-norm estimator for ||A^{-1}||_1 (Hager 1984, as refined by
/// Higham's CONDEST): a few forward/transpose solves on the factorization,
/// never forming the inverse. Exact for diagonal matrices; a lower bound in
/// general, in practice within a small factor of the truth. Returns +inf
/// for a singular factorization.
[[nodiscard]] double inverse_norm1_estimate(const LuFactorization& f);

/// cond_1(A) ~= ||A||_1 * est(||A^{-1}||_1) given the factorization of A.
/// Counts numerics.condest.evaluations.
[[nodiscard]] double condest_1(double a_norm1, const LuFactorization& f);

}  // namespace tags::linalg
