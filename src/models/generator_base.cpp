#include "models/generator_base.hpp"

#include <cassert>

namespace tags::models {

ctmc::SteadyStateResult SolvableModel::solve(const ctmc::SteadyStateOptions& opts) const {
  return ctmc::steady_state(engine_.generator(), opts);
}

Metrics SolvableModel::metrics(const ctmc::SteadyStateOptions& opts) const {
  const auto result = solve(opts);
  assert(result.converged);
  return metrics_from(result.pi);
}

Metrics SolvableModel::metrics_from(const linalg::Vec& pi) const {
  const ctmc::BasicMeasures b = ctmc::evaluate(engine_, pi, measure_spec());
  Metrics m;
  m.mean_q1 = b.mean_q1;
  m.mean_q2 = b.mean_q2;
  m.utilisation1 = b.utilisation1;
  m.utilisation2 = b.utilisation2;
  m.throughput = b.throughput;
  m.loss1_rate = b.loss1_rate;
  m.loss2_rate = b.loss2_rate;
  finalize(m);
  return m;
}

ctmc::Ctmc SolvableModel::to_ctmc() const { return ctmc::materialize(*this); }

std::vector<ctmc::index_t> node2_partition(ctmc::index_t states, ctmc::index_t node2_states) {
  std::vector<ctmc::index_t> blocks(static_cast<std::size_t>(states));
  for (ctmc::index_t idx = 0; idx < states; ++idx) {
    blocks[static_cast<std::size_t>(idx)] = idx % node2_states;
  }
  return blocks;
}

}  // namespace tags::models
