#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

#include "linalg/solver.hpp"
#include "linalg/sweep_kernel.hpp"
#include "obs/obs.hpp"

namespace tags::linalg {

namespace {

/// Classify the outcome (relative residual, divergence vs stagnation) and
/// feed the observability layer. `initial_residual` is ||b - A x0||_inf for
/// the entering guess.
void finalize_solve(SolveResult& res, index_t n, double b_norm_inf, double initial_residual,
                    std::uint64_t start_ns, const std::string& note = {}) {
  res.final_relative_residual =
      b_norm_inf > 0.0 ? res.residual / b_norm_inf : res.residual;
  res.diverged =
      !res.converged &&
      (!std::isfinite(res.residual) ||
       (std::isfinite(initial_residual) && res.residual > 10.0 * initial_residual &&
        res.residual > b_norm_inf));
  if (obs::metrics_on()) {
    obs::count("linalg.gauss-seidel.solves");
    obs::count("linalg.gauss-seidel.iterations",
               static_cast<std::uint64_t>(res.iterations < 0 ? 0 : res.iterations));
    obs::SolveRecord rec;
    rec.context = "linear";
    rec.method = "gauss-seidel";
    rec.n = n;
    rec.iterations = res.iterations;
    rec.residual = res.residual;
    rec.relative_residual = res.final_relative_residual;
    rec.converged = res.converged;
    rec.diverged = res.diverged;
    rec.wall_ms = static_cast<double>(obs::now_ns() - start_ns) / 1e6;
    rec.note = note;
    obs::record_solve(std::move(rec));
  }
}

}  // namespace

SolveResult gauss_seidel(const CsrMatrix& a, std::span<const double> b, Vec& x,
                         const SolveOptions& opts) {
  assert(a.rows() == a.cols());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  assert(b.size() == n && x.size() == n);
  const std::uint64_t start_ns = obs::now_ns();
  obs::Span span("linalg/gauss_seidel");
  span.attr("n", static_cast<double>(n));

  const Vec diag = a.diagonal();
  Vec scratch(n);
  const double initial_residual = a.residual_inf(x, b, scratch);
  const double b_norm = nrm_inf(b);
  SolveResult res;

  // A structural zero on the diagonal makes the sweep divide by zero and
  // fill x with inf/NaN that then propagates through every later update.
  // Bail before touching x: the caller sees an explicit divergence instead
  // of a poisoned vector.
  if (const index_t bad = detail::find_zero_diagonal(diag, 0, a.rows()); bad >= 0) {
    obs::count("numerics.gauss_seidel.zero_diagonal");
    if (obs::tracing_on()) {
      obs::TraceEvent ev;
      ev.name = "numerics.gauss_seidel_zero_diagonal";
      ev.num.emplace_back("row", static_cast<double>(bad));
      ev.num.emplace_back("n", static_cast<double>(n));
      obs::emit(std::move(ev));
    }
    res.residual = initial_residual;
    finalize_solve(res, a.rows(), b_norm, initial_residual, start_ns, "zero-diagonal");
    res.diverged = true;  // after finalize_solve, which re-derives the flag
    return res;
  }

  for (res.iterations = 0; res.iterations < opts.max_iter; ++res.iterations) {
    const double max_update = detail::gs_sweep_range(a, b, x, diag, 0, a.rows());
    // The update norm is only a proxy; confirm with the true residual, but
    // not every sweep (it costs one SpMV).
    const bool check_now = max_update <= opts.tol || (res.iterations & 31) == 31;
    if (check_now) {
      res.residual = a.residual_inf(x, b, scratch);
      obs::trace_iteration("gauss-seidel", res.iterations, res.residual);
      if (res.residual <= opts.tol) {
        res.converged = true;
        ++res.iterations;
        finalize_solve(res, a.rows(), b_norm, initial_residual, start_ns);
        return res;
      }
    }
  }
  res.residual = a.residual_inf(x, b, scratch);
  res.converged = res.residual <= opts.tol;
  finalize_solve(res, a.rows(), b_norm, initial_residual, start_ns);
  return res;
}

}  // namespace tags::linalg
