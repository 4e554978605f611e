// Batched evaluation of a warm-started t-chain (see DESIGN.md "Batched
// multi-point sweeps"). A t-sweep rebinding rates on a frozen pattern can
// pack B adjacent grid points into one linalg::CsrValueBatch and solve them
// together: where dense LU is the solver, all B systems are factored in
// SIMD lockstep, and per-lane results are bit-identical to the scalar
// chain's, so batch width — like thread count — stays outside the
// determinism contract. Warm-start bookkeeping is replayed per point in
// grid order after each batch, which reproduces the scalar WarmStartState
// counters (and the guess chain an escalated lane sees) exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "ctmc/steady_state.hpp"
#include "linalg/batch.hpp"

namespace tags::models {

/// Walk grid points [begin, end) of `t_values` in chunks of `batch`,
/// rebinding `Model` to each point, solving each chunk with
/// ctmc::steady_state_batch, and invoking
///   per_point(global_index, result, model)
/// once per point in grid order with the model re-bound to that point's
/// parameters (for metrics extraction). batch <= 1 degenerates to the
/// scalar rebind/solve loop the sweeps have always run.
template <class Model, class Params, class PerPoint>
void batched_t_chain(const Params& base, const std::vector<double>& t_values,
                     std::size_t begin, std::size_t end, std::size_t batch,
                     ctmc::WarmStartState& warm, PerPoint&& per_point) {
  std::optional<Model> model;
  const auto bind = [&](std::size_t i) {
    Params p = base;
    p.t = t_values[i];
    if (model) {
      // Only t moves within the sweep: the sparsity pattern is frozen, so
      // every point after the first is a rate rebind, not a rebuild.
      model->rebind(p);
    } else {
      model.emplace(p);
    }
  };
  if (batch <= 1) {
    for (std::size_t i = begin; i < end; ++i) {
      bind(i);
      warm.reconcile(model->n_states());
      const auto solved = model->solve(warm.opts);
      warm.accept(solved);
      per_point(i, solved, *model);
    }
    return;
  }
  for (std::size_t i = begin; i < end;) {
    const std::size_t bw = std::min(batch, end - i);
    std::optional<linalg::CsrValueBatch> vals;
    for (std::size_t b = 0; b < bw; ++b) {
      bind(i + b);
      const linalg::CsrMatrix& q = model->chain().generator();
      if (!vals) vals.emplace(q, bw);
      vals->load_lane(b, q);
    }
    ctmc::SteadyStateOptions opts = warm.opts;
    // The scalar loop reconciles the guess before each solve; the size
    // check is hoisted here (n is constant across the chunk) and the
    // counter effects are replayed point by point below.
    if (opts.initial_guess &&
        opts.initial_guess->size() != static_cast<std::size_t>(model->n_states())) {
      opts.initial_guess.reset();
    }
    const std::vector<ctmc::SteadyStateResult> solved =
        ctmc::steady_state_batch(*vals, opts);
    for (std::size_t b = 0; b < bw; ++b) {
      warm.reconcile(model->n_states());
      warm.accept(solved[b]);
      bind(i + b);  // re-bind for the point's own metric extraction
      per_point(i + b, solved[b], *model);
    }
    i += bw;
  }
}

}  // namespace tags::models
