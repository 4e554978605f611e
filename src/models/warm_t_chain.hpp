// The warm-started t-chain every t-sweep shard and integer-t optimiser scan
// runs: rebind the model to each grid point in turn, reconcile the warm
// start, solve, and accept the result as the next point's initial guess.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ctmc/steady_state.hpp"

namespace tags::models {

/// Walk grid points [begin, end) of `t_values` in order, binding `Model`
/// to each point once, solving it warm-started from the previous point,
/// and invoking
///   per_point(global_index, result, model)
/// with the model bound to that point's parameters (for metrics
/// extraction).
template <class Model, class Params, class PerPoint>
void warm_t_chain(const Params& base, const std::vector<double>& t_values,
                  std::size_t begin, std::size_t end, ctmc::WarmStartState& warm,
                  PerPoint&& per_point) {
  std::optional<Model> model;
  for (std::size_t i = begin; i < end; ++i) {
    Params p = base;
    p.t = t_values[i];
    if (model) {
      // Only t moves within the sweep: the sparsity pattern is frozen, so
      // every point after the first is a rate rebind, not a rebuild.
      model->rebind(p);
    } else {
      model.emplace(p);
    }
    warm.reconcile(model->n_states());
    const auto solved = model->solve(warm.opts);
    warm.accept(solved);
    per_point(i, solved, *model);
  }
}

}  // namespace tags::models
