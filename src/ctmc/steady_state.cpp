#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "linalg/inflow_rows.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace tags::ctmc {

std::string_view to_string(SteadyStateMethod m) noexcept {
  switch (m) {
    case SteadyStateMethod::kAuto: return "auto";
    case SteadyStateMethod::kDenseLu: return "dense-lu";
    case SteadyStateMethod::kGaussSeidel: return "gauss-seidel";
    case SteadyStateMethod::kPower: return "power";
  }
  return "unknown";
}

namespace {

/// Record the just-finished solve as this result's own attempt entry.
void note_attempt(SteadyStateResult& res) {
  SteadyStateAttempt a;
  a.method = res.method_used;
  a.iterations = res.iterations;
  a.residual = res.residual;
  a.converged = res.converged;
  res.attempts.push_back(std::move(a));
}

/// The SolveRecord rendering of an attempt list: method names joined by
/// commas.
void append_attempts(obs::SolveRecord& rec, const std::vector<SteadyStateAttempt>& attempts) {
  for (const SteadyStateAttempt& a : attempts) {
    if (!rec.attempts.empty()) rec.attempts += ',';
    rec.attempts += to_string(a.method);
  }
}

/// Count a kAuto stage declined in favour of the next one. A declined
/// stage that had converged failed only its certificate: that is also a
/// certification escalation.
void count_fallback(bool converged) {
  obs::count("ctmc.steady_state.fallbacks");
  if (converged) obs::count("numerics.certify.escalations");
}

using linalg::CooMatrix;
using linalg::CsrMatrix;
using linalg::index_t;
using linalg::Vec;

/// Everything the solvers need: the CSR generator plus its largest exit
/// rate, read off the diagonal. Built once per public steady_state call, so
/// any representation that yields a CSR generator (classic Ctmc,
/// GeneratorCtmc, a raw matrix) solves through the same path.
struct System {
  const CsrMatrix& q;
  double max_exit = 0.0;

  explicit System(const CsrMatrix& gen) : q(gen) {
    for (index_t i = 0; i < gen.rows(); ++i) max_exit = std::max(max_exit, -gen.at(i, i));
  }
  [[nodiscard]] index_t n() const noexcept { return q.rows(); }
};

/// ||pi Q||_inf via y = Q^T pi.
double balance_residual(const CsrMatrix& qt, std::span<const double> pi, Vec& scratch) {
  qt.multiply(pi, scratch);
  return linalg::nrm_inf(scratch);
}

/// Stamp the result with an independent certificate: the residual is
/// recomputed from Q^T and pi (never trusted from the solver), entries are
/// checked finite, and probability mass is re-summed with compensation.
/// `condition` carries the dense-LU path's Hager estimate (0 elsewhere).
void certify_result(SteadyStateResult& res, const CsrMatrix& qt, const System& sys,
                    const SteadyStateOptions& opts, double condition = 0.0) {
  if (!opts.certify) return;
  if (res.pi.size() != static_cast<std::size_t>(sys.n())) return;  // no solution
  const obs::Span span("solve/certify");
  linalg::CertifyOptions c = opts.certify_opts;
  c.residual_bound *= std::max(1.0, sys.max_exit);
  const Vec zero(res.pi.size(), 0.0);
  res.certificate = linalg::certify_solution(qt, res.pi, zero, c, condition);
}

/// The acceptance test the kAuto chain escalates on: converged by the
/// solver's own criterion AND certified (when certification is enabled).
bool accepted(const SteadyStateResult& res, const SteadyStateOptions& opts) {
  return res.converged && (!opts.certify || res.certificate.ok());
}

Vec initial_vector(const System& sys, const SteadyStateOptions& opts) {
  const std::size_t n = static_cast<std::size_t>(sys.n());
  if (opts.initial_guess && opts.initial_guess->size() == n) {
    Vec pi = *opts.initial_guess;
    for (double& v : pi) v = std::max(v, 0.0);
    if (linalg::normalize_l1(pi) > 0.0) return pi;
  }
  return Vec(n, 1.0 / static_cast<double>(n));
}

/// Stamp the per-attempt span with the outcome every solver reports. Why
/// kAuto declined a stage reads off the pair: converged 0 is a residual
/// failure, converged 1 with certified 0 a certification escalation.
void close_attempt_span(obs::Span& span, const SteadyStateResult& res) {
  span.attr("iterations", static_cast<double>(res.iterations));
  span.attr("residual", res.residual);
  span.attr("converged", res.converged ? 1.0 : 0.0);
  span.attr("certified", res.certificate.ok() ? 1.0 : 0.0);
}

SteadyStateResult solve_dense_lu(const System& sys, const SteadyStateOptions& opts) {
  obs::Span span("solve/dense-lu");
  span.attr("n", static_cast<double>(sys.n()));
  const std::size_t n = static_cast<std::size_t>(sys.n());
  // A = Q^T with the last balance equation replaced by sum(pi) = 1.
  linalg::DenseMatrix a(n, n);
  const CsrMatrix& q = sys.q;
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      a(static_cast<std::size_t>(cs[k]), static_cast<std::size_t>(i)) = vs[k];
    }
  }
  for (std::size_t j = 0; j < n; ++j) a(n - 1, j) = 1.0;
  const double a_norm1 = opts.certify ? linalg::norm1(a) : 0.0;
  const linalg::LuFactorization f = linalg::lu_factor(std::move(a));
  SteadyStateResult res;
  res.method_used = SteadyStateMethod::kDenseLu;
  if (!f.singular()) {
    // pi = A^{-1} e_n, clamped, normalised, checked and certified. The
    // direct path is the one place a condition estimate is nearly free:
    // Hager's iteration is a handful of O(n^2) triangular solves on a
    // factorization we already hold.
    const double condition = opts.certify ? linalg::condest_1(a_norm1, f) : 0.0;
    Vec b(n, 0.0);
    b[n - 1] = 1.0;
    res.pi = f.solve(b);
    for (double& v : res.pi) v = std::max(v, 0.0);
    linalg::normalize_l1(res.pi);
    Vec scratch(n);
    const CsrMatrix& qt = sys.q.transpose_cache();
    res.residual = balance_residual(qt, res.pi, scratch);
    res.converged = std::isfinite(res.residual) &&
                    res.residual <= 1e-6 * std::max(1.0, sys.max_exit);
    res.iterations = 1;
    certify_result(res, qt, sys, opts, condition);
  }
  note_attempt(res);
  close_attempt_span(span, res);
  return res;
}

/// Whether more off-diagonal rate mass flows to lower state indices
/// (q_ij, i > j) than to higher ones. Gauss-Seidel converges fastest when
/// it sweeps the way probability flows, so the sweep runs downward exactly
/// when this holds; ties keep the ascending sweep.
bool downward_flow_dominates(const CsrMatrix& q) {
  double down = 0.0;
  double up = 0.0;
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] < i) {
        down += vs[k];
      } else if (cs[k] > i) {
        up += vs[k];
      }
    }
  }
  return down > up;
}

/// When the two-level steps stop (see solve_gauss_seidel): a step that
/// would move no block's mass by more than kMinBlockMove relative is not
/// taken, and one whose 16 sweeps do not cut the residual below
/// kStepGain times its value at the step is the last. On the 12831-state
/// H2 chain, stops at a move of 1e-5 and 1e-6 took 432 and 208 cold
/// sweeps, 1e-8 and 0 took 112. On the deep chains (K2 <= 2) the slow mode
/// is in node 1, each step moves the blocks by about 1% and the residual
/// falls by 2% per 16 sweeps with or without it; the gain test ends the
/// steps there after one.
constexpr double kMinBlockMove = 1e-8;
constexpr double kStepGain = 0.5;

SteadyStateResult solve_gauss_seidel(const System& sys, const SteadyStateOptions& opts) {
  obs::Span span("solve/gauss-seidel");
  span.attr("n", static_cast<double>(sys.n()));
  SteadyStateResult res;
  res.method_used = SteadyStateMethod::kGaussSeidel;
  const std::size_t n = static_cast<std::size_t>(sys.n());
  const CsrMatrix& qt = sys.q.transpose_cache();
  // Residuals of pi*Q scale with the transition rates; make the tolerance
  // relative so stiff chains (huge timer rates) converge sensibly.
  const double tol = opts.tol * std::max(1.0, sys.max_exit);
  const bool backward = downward_flow_dominates(sys.q);
  span.attr("direction", backward ? "backward" : "forward");
  const linalg::InflowRows& rows = sys.q.inflow_cache();
  span.attr("blocks", static_cast<double>(rows.blocks()));

  Vec pi = initial_vector(sys, opts);
  Vec scratch(n);
  // Two-level steps (linalg/inflow_rows.hpp): at each residual check that
  // has not converged, the blocks are rescaled to the coarse chain's
  // masses, unless the check is the last. The next check judges the step:
  // after one that gained less than kStepGain, or once a step would move
  // no block's mass by more than kMinBlockMove, the solve keeps pi and
  // sweeps on without steps.
  bool stepping = rows.blocks() > 0;
  bool stepped = false;
  int steps = 0;
  linalg::CoarseWork coarse;
  double step_residual = 0.0;  // the residual at the check that took the last step
  // A sweep is linear and homogeneous in pi, so pi's scale may drift
  // between residual checks: it is renormalised at each check, and every
  // way out of the loop passes through one, which leaves res.residual and
  // res.converged describing the pi returned. With no iterations allowed,
  // the normalised initial vector is checked instead.
  if (opts.max_iter <= 0) {
    res.residual = rows.residual(pi, scratch);
    res.converged = res.residual <= tol;
  }
  for (res.iterations = 0; res.iterations < opts.max_iter; ++res.iterations) {
    rows.sweep(pi, backward);
    if ((res.iterations & 15) == 15 || res.iterations + 1 == opts.max_iter) {
      linalg::normalize_l1(pi);
      res.residual = rows.residual(pi, scratch);
      if (res.residual <= tol) {
        res.converged = true;
        ++res.iterations;
        break;
      }
      if (std::exchange(stepped, false) && !(res.residual <= kStepGain * step_residual)) {
        stepping = false;
      }
      if (stepping && res.iterations + 1 < opts.max_iter) {
        const obs::Span step_span("solve/coarse-step");
        if (rows.coarse_solve(pi, coarse) > kMinBlockMove) {
          step_residual = res.residual;
          rows.rescale(pi, coarse);
          stepped = true;
          ++steps;
        } else {
          stepping = false;
        }
      }
    }
  }
  if (steps > 0) obs::count("ctmc.gauss_seidel.coarse_steps", static_cast<std::uint64_t>(steps));
  span.attr("coarse_steps", static_cast<double>(steps));
  res.pi = std::move(pi);
  certify_result(res, qt, sys, opts);
  note_attempt(res);
  close_attempt_span(span, res);
  return res;
}

SteadyStateResult solve_power(const System& sys, const SteadyStateOptions& opts) {
  obs::Span span("solve/power");
  span.attr("n", static_cast<double>(sys.n()));
  SteadyStateResult res;
  res.method_used = SteadyStateMethod::kPower;
  const std::size_t n = static_cast<std::size_t>(sys.n());
  const CsrMatrix& q = sys.q;
  const CsrMatrix& qt = q.transpose_cache();
  // Strictly greater than the max exit rate so the DTMC is aperiodic.
  const double lambda = sys.max_exit * 1.05 + 1e-12;
  const double tol = opts.tol * std::max(1.0, sys.max_exit);

  // Pt = (I + Q/lambda)^T assembled directly from Q^T.
  CooMatrix coo(qt.rows(), qt.cols());
  for (index_t i = 0; i < qt.rows(); ++i) {
    const auto cs = qt.row_cols(i);
    const auto vs = qt.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) coo.add(i, cs[k], vs[k] / lambda);
    coo.add(i, i, 1.0);
  }
  const CsrMatrix pt = CsrMatrix::from_coo(coo);

  Vec pi = initial_vector(sys, opts);
  Vec next(n);
  Vec scratch(n);
  // Every way out of the loop passes through a residual check on the pi
  // returned; with no iterations allowed, the initial vector is checked.
  if (opts.max_iter <= 0) {
    res.residual = balance_residual(qt, pi, scratch);
    res.converged = res.residual <= tol;
  }
  for (res.iterations = 0; res.iterations < opts.max_iter; ++res.iterations) {
    pt.multiply(pi, next);
    linalg::normalize_l1(next);
    pi.swap(next);
    if ((res.iterations & 15) == 15 || res.iterations + 1 == opts.max_iter) {
      res.residual = balance_residual(qt, pi, scratch);
      if (res.residual <= tol) {
        res.converged = true;
        ++res.iterations;
        break;
      }
    }
  }
  res.pi = std::move(pi);
  certify_result(res, qt, sys, opts);
  note_attempt(res);
  close_attempt_span(span, res);
  return res;
}

/// Largest chain kAuto hands to dense LU: O(n^3) flops and n^2 doubles.
constexpr index_t kDenseLuMaxStates = 1200;

/// One row of the kAuto chain. A stage is skipped when it is not enabled
/// and run otherwise; the first accepted result ends the chain.
struct Stage {
  SteadyStateMethod method;
  /// False skips the stage: the chain is outside its size range.
  bool (*enabled)(index_t n);
  SteadyStateResult (*run)(const System& sys, const SteadyStateOptions& opts);
  /// A last-resort stage starts from the best earlier last-resort π, and
  /// the best of them is returned, flagged, when no stage is accepted.
  bool last_resort = false;
};

bool always(index_t) { return true; }

// LU for small chains, then Gauss-Seidel (two-level where the chain's
// builder supplied a partition), then power iteration, which converges on
// every irreducible chain given enough iterations. Every result is
// certified, so a singular factorisation costs a fallthrough, never a
// wrong answer.
constexpr Stage kAutoChain[] = {
    {.method = SteadyStateMethod::kDenseLu,
     .enabled = [](index_t n) { return n <= kDenseLuMaxStates; },
     .run = solve_dense_lu},
    {.method = SteadyStateMethod::kGaussSeidel,
     .enabled = always,
     .run = solve_gauss_seidel,
     .last_resort = true},
    {.method = SteadyStateMethod::kPower,
     .enabled = always,
     .run = solve_power,
     .last_resort = true},
};

/// Whether the solve `opts` asks for on an n-state chain starts with
/// Gauss-Seidel, which reads the initial guess. Dense LU never reads it,
/// and kAuto runs dense LU first on chains of at most kDenseLuMaxStates.
bool starts_with_gauss_seidel(const SteadyStateOptions& opts, index_t n) {
  return opts.method == SteadyStateMethod::kGaussSeidel ||
         (opts.method == SteadyStateMethod::kAuto && n > kDenseLuMaxStates);
}

/// The kAuto chain. It escalates on the *certificate*, not on the raw
/// residual alone: a method that converged by its own bookkeeping but
/// failed the independent check (non-finite entries, mass drift, hopeless
/// condition estimate) falls through to the next stage like a divergence.
SteadyStateResult solve_auto(const System& sys, const SteadyStateOptions& opts) {
  std::vector<SteadyStateAttempt> attempts;
  std::optional<SteadyStateResult> best;  // lowest-residual last-resort result
  // Whether the last declined stage had converged; counted once the next
  // stage actually runs.
  std::optional<bool> declined_converged;
  for (const Stage& stage : kAutoChain) {
    if (!stage.enabled(sys.n())) continue;
    if (declined_converged) count_fallback(*declined_converged);
    SteadyStateResult res;
    if (stage.last_resort && best) {
      SteadyStateOptions warm = opts;
      warm.initial_guess = best->pi;  // reuse partial progress
      res = stage.run(sys, warm);
    } else {
      res = stage.run(sys, opts);
    }
    attempts.insert(attempts.end(), res.attempts.begin(), res.attempts.end());
    if (accepted(res, opts)) {
      res.attempts = std::move(attempts);
      return res;
    }
    declined_converged = res.converged;
    if (stage.last_resort && !(best && best->residual <= res.residual)) best = std::move(res);
  }
  // The whole chain is exhausted and nothing passed: the caller gets the
  // best attempt, flagged. This is the "nothing landed in a table
  // unchecked" guarantee — uncertified results are visible, not silent.
  obs::count("numerics.steady_state.uncertified_returns");
  best->attempts = std::move(attempts);
  return std::move(*best);
}

SteadyStateResult steady_state_impl(const System& sys, const SteadyStateOptions& opts) {
  switch (opts.method) {
    case SteadyStateMethod::kDenseLu: return solve_dense_lu(sys, opts);
    case SteadyStateMethod::kGaussSeidel: return solve_gauss_seidel(sys, opts);
    case SteadyStateMethod::kPower: return solve_power(sys, opts);
    case SteadyStateMethod::kAuto: break;
  }
  return solve_auto(sys, opts);
}

}  // namespace

SteadyStateResult steady_state(const linalg::CsrMatrix& q, const SteadyStateOptions& opts) {
  assert(q.rows() > 0 && q.rows() == q.cols());
  obs::Span root_span("ctmc/steady_state");
  root_span.attr("n", static_cast<double>(q.rows()));
  root_span.attr("method", to_string(opts.method));
  const std::uint64_t start_ns = obs::now_ns();
  if (opts.initial_guess) {
    obs::count(opts.initial_guess->size() == static_cast<std::size_t>(q.rows())
                   ? "ctmc.steady_state.warm_start.hits"
                   : "ctmc.steady_state.warm_start.misses");
  }
  const System sys(q);
  SteadyStateResult res = steady_state_impl(sys, opts);
  root_span.attr("method_used", to_string(res.method_used));
  if (obs::metrics_on()) {
    obs::count("ctmc.steady_state.solves");
    obs::SolveRecord rec;
    rec.context = "steady_state";
    rec.method = to_string(res.method_used);
    rec.n = q.rows();
    rec.iterations = res.iterations;
    rec.residual = res.residual;
    rec.relative_residual = res.residual / std::max(1.0, sys.max_exit);
    rec.converged = res.converged;
    rec.diverged = !std::isfinite(res.residual);
    rec.certified = res.certificate.ok();
    rec.condition = res.certificate.condition;
    rec.wall_ms = static_cast<double>(obs::now_ns() - start_ns) / 1e6;
    append_attempts(rec, res.attempts);
    obs::record_solve(std::move(rec));
  }
  return res;
}

SteadyStateResult steady_state(const Ctmc& chain, const SteadyStateOptions& opts) {
  assert(chain.n_states() > 0);
  return steady_state(chain.generator(), opts);
}

void reconcile_warm_start(SteadyStateOptions& opts, index_t n_states) {
  if (!opts.initial_guess) return;
  if (opts.initial_guess->size() != static_cast<std::size_t>(n_states)) {
    opts.initial_guess.reset();
    obs::count("ctmc.steady_state.warm_start.cleared");
  }
}

void WarmStartState::reconcile(index_t n_states) {
  const bool had_guess = opts.initial_guess.has_value();
  reconcile_warm_start(opts, n_states);
  if (had_guess && !opts.initial_guess) ++cleared;
  if (!line_.empty() && line_.back().pi.size() != static_cast<std::size_t>(n_states)) {
    line_.clear();
  }
  coordinate_.reset();
  if (opts.initial_guess) {
    ++hits;
  } else {
    ++misses;
  }
}

Vec WarmStartState::extrapolate(double t) const {
  double w[kLinePoints] = {};
  for (std::size_t a = 0; a < line_.size(); ++a) {
    double num = 1.0;
    double den = 1.0;
    for (std::size_t b = 0; b < line_.size(); ++b) {
      if (b == a) continue;
      num *= t - line_[b].coordinate;
      den *= line_[a].coordinate - line_[b].coordinate;
    }
    w[a] = num / den;
  }
  Vec x(line_.back().pi.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double v = 0.0;
    for (std::size_t a = 0; a < line_.size(); ++a) v += w[a] * line_[a].pi[i];
    x[i] = std::max(v, 0.0);
  }
  const double mass = linalg::normalize_l1(x);
  if (!(mass > 0.0 && std::isfinite(mass))) return {};
  return x;
}

void WarmStartState::reconcile(const linalg::CsrMatrix& q, double coordinate) {
  reconcile(q.rows());
  coordinate_ = coordinate;
  if (line_.size() < 2 || !starts_with_gauss_seidel(opts, q.rows())) return;
  Vec guess = extrapolate(coordinate);
  if (guess.empty()) return;
  // The balance residuals come off the Gauss-Seidel copy of Q^T (the same
  // bits as over Q^T itself): serial, and the copy a sweep reads next.
  const linalg::InflowRows& rows = q.inflow_cache();
  Vec scratch(guess.size());
  if (rows.residual(guess, scratch) < rows.residual(line_.back().pi, scratch)) {
    opts.initial_guess = std::move(guess);
    ++predicted;
    obs::count("ctmc.steady_state.warm_start.predicted");
  }
}

void WarmStartState::accept(const SteadyStateResult& r) {
  if (!r.converged || (opts.certify && !r.certificate.ok())) ++uncertified;
  const std::optional<double> t = std::exchange(coordinate_, std::nullopt);
  if (!r.converged) {
    if (!line_.empty()) opts.initial_guess = line_.back().pi;  // not a failed prediction
    return;
  }
  opts.initial_guess = r.pi;
  if (!t) {
    line_.clear();
    return;
  }
  // A repeated coordinate replaces its old point, so the extrapolation
  // weights never divide by zero.
  std::erase_if(line_, [&](const LinePoint& p) { return p.coordinate == *t; });
  if (line_.size() == kLinePoints) line_.erase(line_.begin());
  line_.push_back({*t, r.pi});
}

void WarmStartState::restart_line() noexcept { line_.clear(); }

void WarmStartState::merge(const WarmStartState& other) noexcept {
  hits += other.hits;
  misses += other.misses;
  cleared += other.cleared;
  uncertified += other.uncertified;
  predicted += other.predicted;
}

}  // namespace tags::ctmc
