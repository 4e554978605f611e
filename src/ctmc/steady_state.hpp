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
//                   otherwise (ties included). A sweep reads a copy of
//                   Q^T without its diagonal (32-bit column indices) and
//                   multiplies by 1/exit_j; pi is renormalised only where
//                   the residual is checked, every 16 sweeps, and the
//                   check reads the same copy (same bits as over Q^T).
//  * kPower       — power iteration on the uniformized DTMC
//                   P = I + Q/Lambda; slowest but unconditionally stable.
//  * kNcdAd       — iterative aggregation-disaggregation on a nearly-
//                   completely-decomposable block partition (see
//                   linalg/ncd.hpp); a handful of censored block sweeps plus
//                   a coarse dense solve per pass when inter-block coupling
//                   is weak, declined on strongly-coupled chains.
//  * kAuto        — one fixed stage table: NCD aggregation-disaggregation
//                   when its coupling gate accepts, then LU for small chains,
//                   then Gauss-Seidel, then power iteration from
//                   Gauss-Seidel's pi as the last resort. Escalation is
//                   certificate-driven: a result that fails the independent
//                   check falls through to the next stage.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "linalg/certify.hpp"
#include "linalg/ncd.hpp"
#include "linalg/solver.hpp"

namespace tags::ctmc {

/// The numeric values are stable: 4 and 5 belonged to the removed GMRES
/// and level-QBD methods and stay unused, so printed values and test-case
/// names keep meaning the same method.
enum class SteadyStateMethod {
  kAuto = 0,
  kDenseLu = 1,
  kGaussSeidel = 2,
  kPower = 3,
  kNcdAd = 6,
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
  /// Let kAuto try NCD aggregation-disaggregation first when its coupling
  /// gate accepts. Every result must pass certification, so a stale or
  /// misjudged partition costs a fallthrough, never a wrong answer.
  bool ncd = true;
  /// Detection thresholds and the coupling/profitability gate for the NCD
  /// partition (see linalg/ncd.hpp). Chains below ncd_opts.min_states skip
  /// detection entirely — zero overhead on small systems.
  linalg::NcdOptions ncd_opts;
  /// Optional rebind-aware partition cache shared across a sweep's solves
  /// (WarmStartState::reconcile installs one). Solves without a cache
  /// detect afresh. Not thread-safe — one per shard, like the warm state.
  std::shared_ptr<linalg::NcdPartitionCache> ncd_cache;
};

/// One method tried by steady_state (kAuto runs several in sequence).
struct SteadyStateAttempt {
  SteadyStateMethod method = SteadyStateMethod::kAuto;
  int iterations = 0;
  double residual = 0.0;
  bool converged = false;
  /// Why a gated fast path (kNcdAd) was declined without running: the
  /// detector's verdict, e.g. "one-block" or "strong-coupling". Empty for attempts that actually executed. Makes
  /// "why didn't the fast path fire?" answerable from telemetry — gated
  /// methods used to vanish from the attempt list entirely.
  std::string gate_reason;
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
  /// fallback chain (NCD-AD, LU, Gauss-Seidel, power iteration),
  /// including a gate-declined fast path (an entry with a non-empty
  /// gate_reason, which never counts as an executed method).
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
/// the previous stationary vector plus local reuse counters. Each shard of
/// a parallel sweep owns its own instance, so warm starts can never leak
/// across shards (or threads) and the merged counters reproduce the serial
/// totals exactly. Replaces the ad-hoc single-dimension reconciliation the
/// sweep loops used to inline.
struct WarmStartState {
  SteadyStateOptions opts;
  std::uint64_t hits = 0;     ///< solves entered with a usable previous pi
  std::uint64_t misses = 0;   ///< solves entered cold
  std::uint64_t cleared = 0;  ///< stale guesses dropped on dimension change
  /// Solves accepted whose result failed certification (or never converged)
  /// — the sweep-level "did anything land in the table unchecked" signal.
  std::uint64_t uncertified = 0;

  /// Call before each solve: drops a guess whose dimension does not match
  /// the chain about to be solved (counting it in `cleared` and in the
  /// registry), then records whether this solve starts warm or cold.
  void reconcile(index_t n_states);

  /// Call after each solve: keeps pi as the next point's initial guess when
  /// the solve converged, otherwise leaves the current guess untouched.
  void accept(const SteadyStateResult& r);

  /// Fold another shard's counters into this one (grid-order merge).
  void merge(const WarmStartState& other) noexcept;
};

}  // namespace tags::ctmc
