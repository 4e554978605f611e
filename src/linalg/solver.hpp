// Gauss-Seidel for a general sparse linear system, with the result type
// the observability layer records.
//
// Solves A x = b for square, nonsingular A in CSR form, starting from the
// caller-supplied initial guess in x. Convergence is declared on the
// max-norm residual ||b - A x||_inf <= tol. The steady-state solvers in
// ctmc/steady_state run their own sweeps on the balance equations; this
// one serves the absorbing-chain systems of ctmc/first_passage.
#pragma once

#include <span>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace tags::linalg {

struct SolveOptions {
  double tol = 1e-12;       ///< max-norm residual target
  int max_iter = 50000;     ///< sweep budget
};

struct SolveResult {
  bool converged = false;
  int iterations = 0;       ///< sweeps performed
  double residual = 0.0;    ///< final ||b - A x||_inf
  /// residual / ||b||_inf (equals `residual` when b = 0).
  double final_relative_residual = 0.0;
  /// True when the residual blew up (non-finite, or grew well past the
  /// initial residual), as opposed to mere stagnation short of tol.
  bool diverged = false;
};

[[nodiscard]] SolveResult gauss_seidel(const CsrMatrix& a, std::span<const double> b,
                                       Vec& x, const SolveOptions& opts);

}  // namespace tags::linalg
