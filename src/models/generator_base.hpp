// Shared base for the model zoo: every model is a GeneratorModel (state
// space + successor function) and owns a GeneratorCtmc engine assembled
// from itself. The base collapses the formerly per-model boilerplate —
// solve(), metrics()/metrics_from() extraction, materialisation — into one
// place; a model supplies its parameter struct, encode/decode, the
// for_each_transition emission body, and a declarative MeasureSpec.
//
// Writing a new model (migration note in DESIGN.md "Generator models"):
//  1. Derive from SolvableModel; store the parameter struct.
//  2. Implement state_space_size / transition_labels / for_each_transition
//     (the emission pattern must obey the rebinding contract in
//     generator_model.hpp).
//  3. Implement measure_spec() mapping states to queue lengths and labels
//     to service/loss events.
//  4. Call assemble() at the end of the constructor; expose a
//     rebind(params) that validates structural parameters and calls
//     rebind_rates() for cheap rate sweeps.
#pragma once

#include "ctmc/generator.hpp"
#include "ctmc/generator_model.hpp"
#include "ctmc/measures.hpp"
#include "ctmc/steady_state.hpp"
#include "models/metrics.hpp"

namespace tags::models {

/// The abstraction the zoo is written against (alias: the interface lives
/// in ctmc so the engine layer stays independent of the models library).
using GeneratorModel = ctmc::GeneratorModel;
using TransitionSink = ctmc::TransitionSink;

/// The partition of a product state space idx = i1 * node2_states + i2 by
/// its node-2 state i2: the blocks the TAGS chains' slow mode runs between,
/// since jobs that are long for node 1 hold node 2 for a long time.
[[nodiscard]] std::vector<ctmc::index_t> node2_partition(ctmc::index_t states,
                                                         ctmc::index_t node2_states);

class SolvableModel : public GeneratorModel {
 public:
  /// The assembled engine: CSR generator + per-label reward vectors.
  [[nodiscard]] const ctmc::GeneratorCtmc& chain() const noexcept { return engine_; }
  [[nodiscard]] ctmc::index_t n_states() const noexcept { return engine_.n_states(); }

  /// Stationary solve (for warm-started parameter sweeps).
  [[nodiscard]] ctmc::SteadyStateResult solve(
      const ctmc::SteadyStateOptions& opts = {}) const;

  /// Solve and extract the paper's metrics.
  [[nodiscard]] Metrics metrics(const ctmc::SteadyStateOptions& opts = {}) const;

  /// Metrics from a pre-computed stationary distribution.
  [[nodiscard]] Metrics metrics_from(const linalg::Vec& pi) const;

  /// Materialise the classic labelled-transition chain (first-passage
  /// analysis, exporters). Costs a full re-enumeration; steady-state work
  /// should stay on chain().
  [[nodiscard]] ctmc::Ctmc to_ctmc() const;

 protected:
  SolvableModel() = default;

  /// Enumerate this model into the engine (constructor tail call).
  void assemble() { engine_.assemble(*this); }

  /// Repopulate rates on the frozen pattern after a numerical-parameter
  /// change (models expose this via their rebind(params)).
  void rebind_rates() { engine_.rebind(*this); }

  /// Declarative description of the model's standard measures.
  [[nodiscard]] virtual ctmc::MeasureSpec measure_spec() const = 0;

 private:
  ctmc::GeneratorCtmc engine_;
};

}  // namespace tags::models
