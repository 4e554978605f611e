#include "pepa/to_ctmc.hpp"

#include "obs/obs.hpp"
#include "pepa/parser.hpp"
#include "pepa/validate.hpp"

namespace tags::pepa {

double SolvedModel::population_mean(std::string_view derivative) const {
  const linalg::Vec reward = model.population_reward(derivative);
  return ctmc::expected_reward(pi, reward);
}

double SolvedModel::action_throughput(std::string_view action) const {
  return ctmc::throughput(model.chain, pi, action);
}

double SolvedModel::state_probability(
    const std::function<bool(const std::vector<seq_id>&)>& pred) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < model.states.size(); ++s) {
    if (pred(model.states[s])) acc += pi[s];
  }
  return acc;
}

SolvedModel solve(DerivedModel dm, const ctmc::SteadyStateOptions& opts) {
  const obs::Span span("pepa/solve");
  {
    const obs::Span validate_span("pepa/validate");
    const ValidationReport report = check_derived(dm);
    if (!report.ok) {
      std::string msg = "model failed validation:";
      for (const std::string& p : report.problems) msg += "\n  - " + p;
      throw SemanticError(msg);
    }
  }
  SolvedModel out;
  out.solve_info = ctmc::steady_state(dm.chain, opts);
  if (!out.solve_info.converged) {
    throw SemanticError("steady-state solver failed to converge (residual " +
                        std::to_string(out.solve_info.residual) + ")");
  }
  out.pi = out.solve_info.pi;
  out.model = std::move(dm);
  return out;
}

SolvedModel solve_source(std::string_view source, std::string_view system_name,
                         const DeriveOptions& dopts,
                         const ctmc::SteadyStateOptions& sopts) {
  return solve(derive(parse_model(source), system_name, dopts), sopts);
}

}  // namespace tags::pepa
