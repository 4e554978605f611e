// Stationary distribution of an irreducible CTMC: pi Q = 0, sum(pi) = 1.
//
// Methods:
//  * kDenseLu     — replace one balance equation with the normalisation row
//                   and solve the dense system; exact, O(n^3), reference.
//  * kGaussSeidel — sweeps on the transposed balance equations; the
//                   default for the model sizes in this library
//                   (10^3..10^5 states). Each solve sweeps in the
//                   direction most rate mass flows: downward when more
//                   flows to lower indices than to higher ones, upward
//                   otherwise (ties included). A sweep reads a cached copy
//                   of Q^T without its diagonal (linalg/inflow_rows.hpp) and
//                   multiplies by 1/exit_j; pi is renormalised only where
//                   the residual is checked, every 16 sweeps, and the
//                   check reads the same copy (same bits as over Q^T).
//                   On a chain whose builder supplied a partition of its
//                   states (CsrMatrix::partition), the solve is two-level:
//                   each check that has not converged also rescales the
//                   blocks to the stationary masses of the small chain the
//                   generator induces on them, while that pays.
//  * kPower       — power iteration on the uniformized DTMC
//                   P = I + Q/Lambda; slowest but unconditionally stable.
//  * kAuto        — one fixed stage table: LU for small chains, then
//                   Gauss-Seidel, then power iteration from Gauss-Seidel's
//                   pi as the last resort. Escalation is
//                   certificate-driven: a result that fails the independent
//                   check falls through to the next stage.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "linalg/certify.hpp"
#include "linalg/solver.hpp"

namespace tags::ctmc {

/// The numeric values are stable: 4, 5 and 6 belonged to the removed
/// GMRES, level-QBD and NCD aggregation-disaggregation methods and stay
/// unused, so printed values and test-case names keep meaning the same
/// method.
enum class SteadyStateMethod {
  kAuto = 0,
  kDenseLu = 1,
  kGaussSeidel = 2,
  kPower = 3,
};

[[nodiscard]] std::string_view to_string(SteadyStateMethod m) noexcept;

struct SteadyStateOptions {
  SteadyStateMethod method = SteadyStateMethod::kAuto;
  double tol = 1e-11;       ///< target on ||pi Q||_inf
  int max_iter = 200000;    ///< iteration budget for iterative methods
  /// Warm start (e.g. the solution at a nearby parameter point). Must have
  /// n_states entries; it is normalised internally.
  std::optional<linalg::Vec> initial_guess;
  /// Stamp every attempt with a certificate (true-residual recompute,
  /// non-finite guard, probability-mass check, condition estimate on the
  /// dense-LU path). kAuto escalates on certification failure, not just on
  /// raw residual. Off only for overhead measurements.
  bool certify = true;
  /// Certification bounds. residual_bound is *relative*: it is multiplied
  /// by max(1, max exit rate), matching how solver tolerances scale.
  linalg::CertifyOptions certify_opts{.residual_bound = 1e-6};
};

/// One method tried by steady_state (kAuto runs several in sequence).
struct SteadyStateAttempt {
  SteadyStateMethod method = SteadyStateMethod::kAuto;
  int iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

struct SteadyStateResult {
  linalg::Vec pi;           ///< stationary distribution (empty on failure)
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;    ///< final ||pi Q||_inf
  SteadyStateMethod method_used = SteadyStateMethod::kAuto;
  /// What was independently verified about pi (see linalg/certify.hpp).
  /// Default-false when options.certify was disabled; otherwise the
  /// recomputed-residual / finiteness / mass / condition verdict, which is
  /// the signal results tables should trust over `converged`.
  linalg::Certificate certificate;
  /// Every method attempted, in order; the last entry is method_used.
  /// A single-method request yields one entry; kAuto records its whole
  /// fallback chain (LU, Gauss-Seidel, power iteration).
  std::vector<SteadyStateAttempt> attempts;
};

/// Solve pi Q = 0 for an arbitrary CSR generator (rows = columns = states).
/// This is the primitive everything else forwards to; it only needs the
/// matrix — exit rates are read off the diagonal.
[[nodiscard]] SteadyStateResult steady_state(const linalg::CsrMatrix& q,
                                             const SteadyStateOptions& opts = {});

[[nodiscard]] SteadyStateResult steady_state(const Ctmc& chain,
                                             const SteadyStateOptions& opts = {});

/// Drop a warm-start guess whose dimension no longer matches the chain
/// about to be solved (sweeps that cross a structural-parameter boundary
/// would otherwise carry a stale guess that steady_state silently
/// discards). Counts hits/misses under "ctmc.steady_state.warm_start.*".
void reconcile_warm_start(SteadyStateOptions& opts, index_t n_states);

/// Warm-start bookkeeping for one sweep shard: the solver options carrying
/// the next solve's initial guess plus local reuse counters. Each shard of
/// a parallel sweep owns its own instance, so warm starts can never leak
/// across shards (or threads) and the merged counters reproduce the serial
/// totals exactly. Replaces the ad-hoc single-dimension reconciliation the
/// sweep loops used to inline.
///
/// Solves on a parameter line (reconcile with a coordinate, e.g. the timer
/// rate t of a t-sweep) keep the last three converged (coordinate, pi)
/// pairs. Once the line holds two, each solve starts from their Lagrange
/// extrapolation to its coordinate (quadratic through three points,
/// linear through two), clamped at zero and normalised, when that
/// guess has a lower balance residual ||x Q||_inf on the new generator
/// than the last pi; otherwise it starts from the last pi, as a solve
/// without a coordinate always does.
struct WarmStartState {
  SteadyStateOptions opts;
  std::uint64_t hits = 0;     ///< solves entered with a usable previous pi
  std::uint64_t misses = 0;   ///< solves entered cold
  std::uint64_t cleared = 0;  ///< stale guesses dropped on dimension change
  /// Solves accepted whose result failed certification (or never converged)
  /// — the sweep-level "did anything land in the table unchecked" signal.
  std::uint64_t uncertified = 0;
  /// Warm solves that started from the line's extrapolation rather than
  /// the last pi (also counted as "ctmc.steady_state.warm_start.predicted").
  std::uint64_t predicted = 0;

  /// Call before each solve: drops a guess whose dimension does not match
  /// the chain about to be solved (counting it in `cleared` and in the
  /// registry), then records whether this solve starts warm or cold. The
  /// solve is off any parameter line: the guess is the last pi.
  void reconcile(index_t n_states);

  /// Call before each solve at `coordinate` on the current parameter line,
  /// with `q` the generator about to be solved: as reconcile(q.rows()),
  /// then the guess becomes the line's extrapolation when it passes the
  /// residual check above. A solve that does not start with Gauss-Seidel
  /// (kAuto's dense LU on small chains) never reads the guess, so it gets
  /// no extrapolation.
  void reconcile(const linalg::CsrMatrix& q, double coordinate);

  /// Call after each solve: keeps pi as the next point's initial guess (and
  /// on the line, when the solve had a coordinate) if the solve converged;
  /// otherwise the next guess is the last converged pi.
  void accept(const SteadyStateResult& r);

  /// Forget the line's points, so the next solve starts a new line from
  /// the last pi. Callers restart the line when a parameter other than the
  /// coordinate changes.
  void restart_line() noexcept;

  /// Fold another shard's counters into this one (grid-order merge).
  void merge(const WarmStartState& other) noexcept;

 private:
  static constexpr std::size_t kLinePoints = 3;  ///< quadratic extrapolation
  struct LinePoint {
    double coordinate = 0.0;
    linalg::Vec pi;
  };
  /// The line's Lagrange extrapolation to `coordinate`, clamped at zero and
  /// normalised; empty when that leaves no finite mass.
  [[nodiscard]] linalg::Vec extrapolate(double coordinate) const;

  std::vector<LinePoint> line_;      ///< oldest first, at most kLinePoints
  std::optional<double> coordinate_;  ///< of the solve between reconcile and accept
};

}  // namespace tags::ctmc
