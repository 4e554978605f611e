#include "ctmc/uniformization.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "ctmc/fox_glynn.hpp"
#include "linalg/coo.hpp"
#include "obs/obs.hpp"

namespace tags::ctmc {

namespace {

using linalg::CsrMatrix;
using linalg::index_t;
using linalg::Vec;

/// Pt = (I + Q/lambda)^T so that row-vector iteration is a plain SpMV.
CsrMatrix uniformized_transposed(const Ctmc& chain, double lambda) {
  const CsrMatrix& qt = chain.generator().transpose_cache();
  linalg::CooMatrix coo(qt.rows(), qt.cols());
  for (index_t i = 0; i < qt.rows(); ++i) {
    const auto cs = qt.row_cols(i);
    const auto vs = qt.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) coo.add(i, cs[k], vs[k] / lambda);
    coo.add(i, i, 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

/// One uniformization step of duration t on Fox-Glynn weights. Left
/// truncation skips the accumulate (not the power iteration — pi0 P^k must
/// still be advanced); right truncation ends the series with tail mass
/// below truncation_eps by construction. If the weights fail their own
/// mass certification (the underflow guard — unreachable on the Fox-Glynn
/// path for sane inputs) the step auto-splits in half and recurses.
Vec step(const CsrMatrix& pt, Vec pi, double lambda, double t,
         const TransientOptions& opts, int depth, int& steps_taken) {
  const double q = lambda * t;
  const FoxGlynnWeights fg = fox_glynn(q, opts.truncation_eps);
  if (!fg.ok && depth < 10) {
    obs::count("numerics.uniformization.step_splits");
    pi = step(pt, std::move(pi), lambda, t / 2.0, opts, depth + 1, steps_taken);
    return step(pt, std::move(pi), lambda, t / 2.0, opts, depth + 1, steps_taken);
  }
  obs::count("numerics.uniformization.steps");
  ++steps_taken;

  const std::size_t n = pi.size();
  Vec result(n, 0.0);
  Vec term = std::move(pi);  // pi0 P^k as k grows
  Vec next(n);
  for (std::size_t k = 0;; ++k) {
    const double w = fg.at(k);
    if (w > 0.0) linalg::axpy(w, term, result);
    if (k >= fg.right) break;
    pt.multiply(term, next);
    term.swap(next);
  }
  // Clean the truncation/rounding drift. A zero or non-finite mass here
  // means the step produced no distribution at all — the failure mode this
  // layer exists to surface; normalize_l1 leaves the vector untouched then,
  // and the caller's certification fails loudly instead of reading zeros.
  const double mass = linalg::normalize_l1(result);
  if (!(mass > 0.0) || !std::isfinite(mass)) {
    obs::count("numerics.uniformization.zero_mass_guards");
  }
  return result;
}

/// Advance pi over a gap of duration `gap`, splitting so each step's
/// Lambda*dt stays below max_step_jumps.
Vec advance(const CsrMatrix& pt, Vec pi, double lambda, double gap,
            const TransientOptions& opts, int& steps_taken) {
  const int n_steps =
      std::max(1, static_cast<int>(std::ceil(lambda * gap / opts.max_step_jumps)));
  const double dt = gap / n_steps;
  for (int s = 0; s < n_steps; ++s) {
    pi = step(pt, std::move(pi), lambda, dt, opts, 0, steps_taken);
  }
  return pi;
}

void record_transient_solve(const TransientResult& res, index_t n,
                            std::uint64_t start_ns) {
  if (!obs::metrics_on()) return;
  obs::SolveRecord rec;
  rec.context = "transient";
  rec.method = "uniformization";
  rec.n = n;
  rec.iterations = res.steps;
  rec.residual = res.certificate.mass_error;
  rec.relative_residual = res.certificate.mass_error;
  rec.converged = res.certificate.ok();
  rec.diverged = !res.certificate.finite;
  rec.certified = res.certificate.ok();
  rec.wall_ms = static_cast<double>(obs::now_ns() - start_ns) / 1e6;
  obs::record_solve(std::move(rec));
}

}  // namespace

TransientResult transient_distribution_certified(const Ctmc& chain, const Vec& pi0,
                                                 double t,
                                                 const TransientOptions& opts) {
  assert(static_cast<index_t>(pi0.size()) == chain.n_states());
  assert(t >= 0.0);
  const std::uint64_t start_ns = obs::now_ns();
  TransientResult res;
  if (t == 0.0) {
    res.pi = pi0;
    res.certificate = linalg::certify_distribution(res.pi, {});
    record_transient_solve(res, chain.n_states(), start_ns);
    return res;
  }
  const double lambda = chain.max_exit_rate() * 1.02 + 1e-12;
  const CsrMatrix pt = uniformized_transposed(chain, lambda);
  res.pi = advance(pt, pi0, lambda, t, opts, res.steps);
  res.certificate = linalg::certify_distribution(res.pi, {});
  record_transient_solve(res, chain.n_states(), start_ns);
  return res;
}

linalg::Vec transient_distribution(const Ctmc& chain, const Vec& pi0, double t,
                                   const TransientOptions& opts) {
  return transient_distribution_certified(chain, pi0, t, opts).pi;
}

std::vector<linalg::Vec> transient_trajectory(const Ctmc& chain, const Vec& pi0,
                                              const std::vector<double>& times,
                                              const TransientOptions& opts) {
  std::vector<Vec> out;
  out.reserve(times.size());
  const double lambda = chain.max_exit_rate() * 1.02 + 1e-12;
  const CsrMatrix pt = uniformized_transposed(chain, lambda);
  Vec pi = pi0;
  double prev_t = 0.0;
  int steps_taken = 0;
  for (double t : times) {
    assert(t >= prev_t);
    const double gap = t - prev_t;
    if (gap > 0.0) pi = advance(pt, std::move(pi), lambda, gap, opts, steps_taken);
    (void)linalg::certify_distribution(pi, {});
    out.push_back(pi);
    prev_t = t;
  }
  return out;
}

}  // namespace tags::ctmc
