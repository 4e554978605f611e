#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace tags::ctmc {

std::string_view to_string(SteadyStateMethod m) noexcept {
  switch (m) {
    case SteadyStateMethod::kAuto: return "auto";
    case SteadyStateMethod::kDenseLu: return "dense-lu";
    case SteadyStateMethod::kGaussSeidel: return "gauss-seidel";
    case SteadyStateMethod::kPower: return "power";
    case SteadyStateMethod::kNcdAd: return "ncd-ad";
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

/// A fast path the profitability gate declined without running: zero
/// iterations, never converged, but present in the attempt list with the
/// detector's verdict so "why didn't it fire?" is answerable downstream.
[[nodiscard]] SteadyStateAttempt gated_attempt(SteadyStateMethod m, const char* reason) {
  SteadyStateAttempt a;
  a.method = m;
  a.gate_reason = reason;
  return a;
}

/// The SolveRecord rendering of an attempt list: method names joined by
/// commas, gate-declined entries suffixed "[gate:<reason>]".
void append_attempts(obs::SolveRecord& rec, const std::vector<SteadyStateAttempt>& attempts) {
  for (const SteadyStateAttempt& a : attempts) {
    if (!rec.attempts.empty()) rec.attempts += ',';
    rec.attempts += to_string(a.method);
    if (!a.gate_reason.empty()) {
      rec.attempts += "[gate:";
      rec.attempts += a.gate_reason;
      rec.attempts += ']';
    }
  }
}

/// Trace a kAuto transition from a failed method to the next one. `reason`
/// distinguishes a raw convergence failure from a converged-but-uncertified
/// result (certification escalation).
void trace_fallback(SteadyStateMethod from, SteadyStateMethod to, double residual,
                    const char* reason) {
  obs::count("ctmc.steady_state.fallbacks");
  if (std::string_view(reason) != "residual") {
    obs::count("numerics.certify.escalations");
  }
  if (!obs::tracing_on()) return;
  obs::TraceEvent ev;
  ev.name = "steady_state.fallback";
  ev.str.emplace_back("from", std::string(to_string(from)));
  ev.str.emplace_back("to", std::string(to_string(to)));
  ev.str.emplace_back("reason", reason);
  ev.num.emplace_back("residual", residual);
  obs::emit(std::move(ev));
}

using linalg::CooMatrix;
using linalg::CsrMatrix;
using linalg::index_t;
using linalg::Vec;

/// Everything the solvers need: the CSR generator plus exit-rate data
/// cached off its diagonal. Built once per public steady_state call, so
/// any representation that yields a CSR generator (classic Ctmc,
/// GeneratorCtmc, a raw matrix) solves through the same path.
struct System {
  const CsrMatrix& q;
  Vec exit;         // -diagonal
  double max_exit;  // largest exit rate

  explicit System(const CsrMatrix& gen) : q(gen), exit(gen.diagonal()), max_exit(0.0) {
    for (double& v : exit) {
      v = -v;
      max_exit = std::max(max_exit, v);
    }
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

/// Why the chain moved on — for the fallback trace.
const char* fallback_reason(const SteadyStateResult& res) {
  return res.converged ? "certification" : "residual";
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

/// Stamp the per-attempt span with the outcome every solver reports.
void close_attempt_span(obs::Span& span, const SteadyStateResult& res) {
  span.attr("iterations", static_cast<double>(res.iterations));
  span.attr("residual", res.residual);
  span.attr("converged", res.converged ? 1.0 : 0.0);
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

/// What a Gauss-Seidel solve reads: Q^T without its diagonal, copied once
/// per solve from the cached transpose. Row j holds the inflow terms q_ij
/// (i != j) in the transpose's column order, with 32-bit column indices,
/// and inv_exit[j] is 1/exit_j, or 0 for a row with no exit rate. A sweep
/// is bound by the chain of dependent operations from one row's update to
/// the next row's read, so the copy drops the diagonal test and the divide
/// from that chain; the sums run in the same order as over Q^T itself.
/// The residual checks read the copy too, with each row's diagonal term
/// put back at its place in the row, so a solve reads Q^T only to build
/// the copy and to certify. In between, its working set is the copy and
/// three n-vectors: 1.3 MB on the paper's 12831-state chains, which fits
/// a 2 MB L2 cache. Checking on Q^T itself adds its 1.3 MB to that, and
/// each check then pushes the copy out to the shared cache levels.
class InflowRows {
 public:
  InflowRows(const CsrMatrix& qt, const Vec& exit)
      : start_(static_cast<std::size_t>(qt.rows()) + 1),
        diag_(exit.size()),
        exit_(exit),
        inv_exit_(exit.size()) {
    assert(qt.rows() <= std::numeric_limits<std::uint32_t>::max());
    col_.reserve(qt.nnz());
    val_.reserve(qt.nnz());
    for (index_t j = 0; j < qt.rows(); ++j) {
      const auto cs = qt.row_cols(j);
      const auto vs = qt.row_vals(j);
      const std::size_t ju = static_cast<std::size_t>(j);
      for (std::size_t k = 0; k < cs.size(); ++k) {
        if (cs[k] == j) {
          diag_[ju] = static_cast<std::uint32_t>(col_.size() - start_[ju]);
          continue;
        }
        col_.push_back(static_cast<std::uint32_t>(cs[k]));
        val_.push_back(vs[k]);
      }
      start_[ju + 1] = col_.size();
    }
    for (std::size_t j = 0; j < exit.size(); ++j) {
      inv_exit_[j] = exit[j] == 0.0 ? 0.0 : 1.0 / exit[j];
    }
  }

  /// pi_j = sum_{i != j} pi_i q_ij / exit_j for every row, descending when
  /// `backward`. A row with no exit rate keeps its value.
  void sweep(Vec& pi, bool backward) const noexcept {
    const std::size_t n = inv_exit_.size();
    if (backward) {
      for (std::size_t j = n; j-- > 0;) relax(j, pi);
    } else {
      for (std::size_t j = 0; j < n; ++j) relax(j, pi);
    }
  }

  /// ||pi Q||_inf via y = Q^T pi, bit for bit as balance_residual computes
  /// it over Q^T: row j's diagonal term q_jj pi_j = -exit_j pi_j joins the
  /// sum at the diagonal's place in the row. A row with no exit rate has
  /// q_jj = 0 and keeps a finite pi_j, so its term cannot move |y_j| and
  /// is left out.
  double residual(const Vec& pi, Vec& y) const noexcept {
    const std::size_t n = inv_exit_.size();
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t k = start_[j];
      double acc = 0.0;
      if (exit_[j] != 0.0) {
        for (const std::size_t d = k + diag_[j]; k < d; ++k) acc += val_[k] * pi[col_[k]];
        acc += -exit_[j] * pi[j];
      }
      for (; k < start_[j + 1]; ++k) acc += val_[k] * pi[col_[k]];
      y[j] = acc;
    }
    return linalg::nrm_inf(y);
  }

 private:
  void relax(std::size_t j, Vec& pi) const noexcept {
    const double inv_exit = inv_exit_[j];
    if (inv_exit == 0.0) return;  // absorbing; caller should have checked
    double inflow = 0.0;
    for (std::size_t k = start_[j]; k < start_[j + 1]; ++k) inflow += val_[k] * pi[col_[k]];
    pi[j] = inflow * inv_exit;
  }

  std::vector<std::size_t> start_;  // row j is [start_[j], start_[j + 1])
  std::vector<std::uint32_t> diag_;  // row j's diagonal sits before entry start_[j] + diag_[j]
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
  const Vec& exit_;  // the solve's System::exit, which outlives the copy
  Vec inv_exit_;
};

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
  const InflowRows rows(qt, sys.exit);

  Vec pi = initial_vector(sys, opts);
  Vec scratch(n);
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
      obs::trace_iteration("steady.gauss-seidel", res.iterations, res.residual);
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
      obs::trace_iteration("steady.power", res.iterations, res.residual);
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

/// NCD aggregation-disaggregation on a precomputed partition: the
/// solver's own convergence claim is re-checked against an independently
/// recomputed balance residual, and the certificate still decides
/// acceptance in kAuto.
SteadyStateResult solve_ncd_ad(const System& sys, const SteadyStateOptions& opts,
                               const linalg::NcdPartition& part) {
  obs::Span span("solve/ncd-ad");
  span.attr("n", static_cast<double>(sys.n()));
  span.attr("blocks", static_cast<double>(part.n_blocks()));
  SteadyStateResult res;
  res.method_used = SteadyStateMethod::kNcdAd;
  res.residual = std::numeric_limits<double>::infinity();
  linalg::NcdSolveOptions so;
  so.tol = opts.tol * std::max(1.0, sys.max_exit);  // relative, like the sweeps
  so.initial_guess = opts.initial_guess;
  linalg::NcdSolveResult r = linalg::ncd_steady_state(sys.q, part, so);
  if (!r.pi.empty()) {
    res.pi = std::move(r.pi);
    res.iterations = r.outer;
    Vec scratch(res.pi.size());
    const CsrMatrix& qt = sys.q.transpose_cache();
    res.residual = balance_residual(qt, res.pi, scratch);
    res.converged = std::isfinite(res.residual) && res.residual <= so.tol;
    certify_result(res, qt, sys, opts);
  }
  note_attempt(res);
  close_attempt_span(span, res);
  return res;
}

/// Largest chain kAuto hands to dense LU: O(n^3) flops and n^2 doubles.
constexpr index_t kDenseLuMaxStates = 1200;

/// What the gate detected, kept for the stage it lets run.
struct Detected {
  linalg::NcdPartition ncd_local;             // detected afresh: no shared cache
  const linalg::NcdPartition* ncd = nullptr;  // the partition the NCD stage solves on
};

/// The NCD gate: declines strongly-coupled chains. A sweep's rebind-aware
/// cache re-evaluates only the coupling against the current rates.
const char* ncd_declines(const CsrMatrix& q, const SteadyStateOptions& opts, Detected& det) {
  if (opts.ncd_cache) {
    det.ncd = &opts.ncd_cache->partition(q, opts.ncd_opts);
  } else {
    det.ncd_local = linalg::detect_ncd(q, opts.ncd_opts);
    det.ncd = &det.ncd_local;
  }
  return det.ncd->profitable ? nullptr : det.ncd->gate_reason;
}

/// One row of the kAuto chain. A stage is skipped silently when it is not
/// enabled, recorded as a gated attempt when its gate declines, and run
/// otherwise; the first accepted result ends the chain.
struct Stage {
  SteadyStateMethod method;
  /// False skips the stage without a trace: switched off, or the chain is
  /// outside its size range.
  bool (*enabled)(index_t n, const SteadyStateOptions& opts);
  /// The profitability gate: the detector's reason for declining, nullptr
  /// to run. Stages without one always run once enabled.
  const char* (*declines)(const CsrMatrix& q, const SteadyStateOptions& opts,
                          Detected& det) = nullptr;
  SteadyStateResult (*run)(const System& sys, const SteadyStateOptions& opts,
                           const Detected& det);
  /// A last-resort stage starts from the best earlier last-resort π, and
  /// the best of them is returned, flagged, when no stage is accepted.
  bool last_resort = false;
  /// Counters (nullptr: none): the gate let it run; its result was
  /// accepted; it ran and fell through; the gate declined it.
  const char* ran = nullptr;
  const char* used = nullptr;
  const char* fallthrough = nullptr;
  const char* declined = nullptr;
};

bool always(index_t, const SteadyStateOptions&) { return true; }

// NCD-AD first, for weakly-coupled chains; chains below min_states skip
// even its detection, so small chains carry no NCD entry in their attempt
// lists. Then LU for small chains, Gauss-Seidel, and power iteration,
// which converges on every irreducible chain given enough iterations.
// Every result is certified, so a misjudged partition or a singular
// factorisation costs a fallthrough, never a wrong answer.
constexpr Stage kAutoChain[] = {
    {.method = SteadyStateMethod::kNcdAd,
     .enabled = [](index_t n, const SteadyStateOptions& o) {
       return o.ncd && n >= o.ncd_opts.min_states;
     },
     .declines = ncd_declines,
     .run = [](const System& sys, const SteadyStateOptions& o, const Detected& det) {
       return solve_ncd_ad(sys, o, *det.ncd);
     },
     .ran = "ncd.gate.accepts",
     .used = "ncd.solves",
     .fallthrough = "ncd.fallthroughs",
     .declined = "ncd.gate.rejects"},
    {.method = SteadyStateMethod::kDenseLu,
     .enabled = [](index_t n, const SteadyStateOptions&) { return n <= kDenseLuMaxStates; },
     .run = [](const System& sys, const SteadyStateOptions& o, const Detected&) {
       return solve_dense_lu(sys, o);
     }},
    {.method = SteadyStateMethod::kGaussSeidel,
     .enabled = always,
     .run = [](const System& sys, const SteadyStateOptions& o, const Detected&) {
       return solve_gauss_seidel(sys, o);
     },
     .last_resort = true},
    {.method = SteadyStateMethod::kPower,
     .enabled = always,
     .run = [](const System& sys, const SteadyStateOptions& o, const Detected&) {
       return solve_power(sys, o);
     },
     .last_resort = true},
};

void maybe_count(const char* counter) {
  if (counter) obs::count(counter);
}

/// The kAuto chain. It escalates on the *certificate*, not on the raw
/// residual alone: a method that converged by its own bookkeeping but
/// failed the independent check (non-finite entries, mass drift, hopeless
/// condition estimate) falls through to the next stage like a divergence.
SteadyStateResult solve_auto(const System& sys, const SteadyStateOptions& opts) {
  Detected det;
  std::vector<SteadyStateAttempt> attempts;
  std::optional<SteadyStateResult> best;  // lowest-residual last-resort result
  struct Failure {
    SteadyStateMethod method;
    double residual;
    const char* reason;
  };
  std::optional<Failure> failed;  // traced once the next stage actually runs
  for (const Stage& stage : kAutoChain) {
    if (!stage.enabled(sys.n(), opts)) continue;
    if (const char* reason = stage.declines ? stage.declines(sys.q, opts, det) : nullptr) {
      maybe_count(stage.declined);
      attempts.push_back(gated_attempt(stage.method, reason));
      continue;
    }
    if (failed) trace_fallback(failed->method, stage.method, failed->residual, failed->reason);
    maybe_count(stage.ran);
    SteadyStateResult res;
    if (stage.last_resort && best) {
      SteadyStateOptions warm = opts;
      warm.initial_guess = best->pi;  // reuse partial progress
      res = stage.run(sys, warm, det);
    } else {
      res = stage.run(sys, opts, det);
    }
    attempts.insert(attempts.end(), res.attempts.begin(), res.attempts.end());
    if (accepted(res, opts)) {
      maybe_count(stage.used);
      res.attempts = std::move(attempts);
      return res;
    }
    maybe_count(stage.fallthrough);
    failed = Failure{stage.method, res.residual, fallback_reason(res)};
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
    case SteadyStateMethod::kNcdAd: {
      // Explicit request: skip the profitability gate; the structural
      // requirement (>= 2 blocks) is enforced by ncd_steady_state itself,
      // which bails unconverged on a trivial partition.
      if (opts.ncd_cache) {
        return solve_ncd_ad(sys, opts, opts.ncd_cache->partition(sys.q, opts.ncd_opts));
      }
      const linalg::NcdPartition part = linalg::detect_ncd(sys.q, opts.ncd_opts);
      return solve_ncd_ad(sys, opts, part);
    }
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
  // Each shard's solves share one rebind-aware NCD partition cache: a sweep
  // rebinds values on a frozen pattern, so detection runs once per shard
  // and later points only re-evaluate the profitability gate. Created here
  // lazily so plain one-shot solves never pay for it.
  if (!opts.ncd_cache) opts.ncd_cache = std::make_shared<linalg::NcdPartitionCache>();
  const bool had_guess = opts.initial_guess.has_value();
  reconcile_warm_start(opts, n_states);
  if (had_guess && !opts.initial_guess) ++cleared;
  if (opts.initial_guess) {
    ++hits;
  } else {
    ++misses;
  }
}

void WarmStartState::accept(const SteadyStateResult& r) {
  if (!r.converged || (opts.certify && !r.certificate.ok())) ++uncertified;
  if (r.converged) opts.initial_guess = r.pi;
}

void WarmStartState::merge(const WarmStartState& other) noexcept {
  hits += other.hits;
  misses += other.misses;
  cleared += other.cleared;
  uncertified += other.uncertified;
}

}  // namespace tags::ctmc
