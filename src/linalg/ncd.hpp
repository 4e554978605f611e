// Near-complete-decomposability (NCD) detection and the iterative
// aggregation-disaggregation (IAD) steady-state solver.
//
// A CTMC is nearly completely decomposable when its states cluster into
// blocks whose internal transition rates dwarf the rates crossing between
// blocks (Courtois). On such chains the classic KMS iteration — censored
// per-block Gauss-Seidel sweeps feeding a dense solve of the block-count-
// sized coupling chain — contracts the error by roughly the coupling ratio
// per outer pass, orders of magnitude faster than sweeping the flat chain.
//
// Detection runs on the frozen CSR pattern: strongly-coupled components are
// the connected components of the symmetrised graph (an edge in either
// direction connects) restricted to edges with rate >= epsilon * scale
// (scale = largest exit rate). The partition is cached rebind-aware
// exactly like CsrMatrix's transpose cache: a value rebind on the frozen
// pattern reuses the partition and merely re-evaluates the profitability
// gate against the fresh rates.
//
// The ctmc layer registers this as SteadyStateMethod::kNcdAd behind the
// gate; everything here is plain linear algebra on a generator Q.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/reorder.hpp"

namespace tags::linalg {

/// Detection and profitability knobs. Thresholds are relative to the
/// chain's largest exit rate, so the gate is invariant under uniform
/// time rescaling.
struct NcdOptions {
  /// An edge is "strong" when its rate is >= epsilon * max exit rate;
  /// blocks are the connected components of the strong-edge graph.
  double epsilon = 0.05;
  /// Gate: largest per-state inter-block outflow divided by the max exit
  /// rate. Above this the chain is not meaningfully decomposable and the
  /// aggregation step stops paying for itself.
  double max_coupling = 0.12;
  /// Gate: below this many states the dense/iterative chain is already
  /// fast; the ctmc layer skips detection entirely (true zero overhead).
  index_t min_states = 1201;
  /// Gate: fewer blocks than this and the coarse solve corrects too little
  /// of the error to beat plain Gauss-Seidel.
  index_t min_blocks = 4;
  /// Gate: the coarse chain is solved by dense LU, cubic in block count.
  index_t max_blocks = 512;
  /// Gate: one block holding more than this fraction of all states means
  /// the sweeps are effectively flat Gauss-Seidel with extra bookkeeping.
  double max_block_fraction = 0.5;
};

/// A block partition of the chain plus the gate verdict for the rates it
/// was last evaluated against.
struct NcdPartition {
  /// New-to-old map placing blocks contiguously, ordered by their smallest
  /// original state, states ascending within each block (deterministic).
  Permutation perm;
  /// Block I occupies permuted rows [block_ptr[I], block_ptr[I+1]).
  std::vector<index_t> block_ptr;
  /// Block id per ORIGINAL state index.
  std::vector<index_t> block_of;
  index_t max_block = 0;
  /// Largest exit rate — the scale the thresholds are relative to.
  double scale = 0.0;
  /// max over states of (inter-block outflow / scale) — the NCD coupling
  /// estimate deciding profitability.
  double coupling = 0.0;
  /// At least two blocks under the epsilon threshold.
  bool decomposable = false;
  /// Decomposable AND every gate bound holds for the current rates.
  bool profitable = false;
  /// Why not profitable; "" when profitable. Static strings only.
  const char* gate_reason = "";

  [[nodiscard]] std::size_t n_blocks() const noexcept {
    return block_ptr.empty() ? 0 : block_ptr.size() - 1;
  }
};

/// Partition q's states into strongly-coupled components and evaluate the
/// profitability gate. Deterministic; O(n + nnz).
[[nodiscard]] NcdPartition detect_ncd(const CsrMatrix& q, const NcdOptions& opts = {});

/// Re-evaluate scale, coupling, profitable and gate_reason against q's
/// CURRENT values, keeping the partition itself. This is the rebind path:
/// the strong/weak split is a property of the operating point, but a sweep
/// moving one rate slightly rarely changes the component structure, and a
/// stale partition only costs convergence speed — never correctness, since
/// every solve is certified against the true residual downstream.
void evaluate_ncd_gate(const CsrMatrix& q, NcdPartition& p, const NcdOptions& opts);

/// Rebind-aware partition cache, modelled on CsrMatrix's transpose cache:
/// keyed on (rows, nnz, epsilon). A hit reuses the partition and re-runs
/// only the O(nnz) gate evaluation; any key change re-detects. One cache
/// per sweep shard / warm-start slot — not thread-safe, by design, like
/// the warm-start state it travels with.
class NcdPartitionCache {
 public:
  const NcdPartition& partition(const CsrMatrix& q, const NcdOptions& opts);

 private:
  NcdPartition part_;
  index_t rows_ = -1;
  std::size_t nnz_ = 0;
  double epsilon_ = 0.0;
  bool valid_ = false;
};

struct NcdSolveOptions {
  /// Absolute target on ||pi Q||_inf — callers pre-scale by their own
  /// max-exit convention.
  double tol = 1e-11;
  /// Outer aggregation/disaggregation passes before giving up.
  int max_outer = 120;
  /// Censored Gauss-Seidel sweeps per block per outer pass.
  int inner_sweeps = 2;
  /// Warm start in ORIGINAL state order; ignored unless it has q.rows()
  /// entries with positive mass. Carries the previous operating point's
  /// block solutions and coarse vector implicitly.
  std::optional<Vec> initial_guess;
};

struct NcdSolveResult {
  /// Stationary distribution in ORIGINAL state order; empty on bailout.
  Vec pi;
  int outer = 0;
  /// Total censored block sweeps performed.
  int sweeps = 0;
  double residual = std::numeric_limits<double>::infinity();
  bool converged = false;
};

/// KMS iterative aggregation-disaggregation for pi Q = 0, sum(pi) = 1.
/// Requires a partition of q with >= 2 blocks (profitability is the
/// caller's policy; correctness only needs the block structure). Bails out
/// unconverged — never poisons — on zero diagonals, singular coarse
/// matrices, or vanishing mass.
[[nodiscard]] NcdSolveResult ncd_steady_state(const CsrMatrix& q, const NcdPartition& p,
                                              const NcdSolveOptions& opts = {});

}  // namespace tags::linalg
