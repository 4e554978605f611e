// The lazy model abstraction behind the model zoo.
//
// A GeneratorModel describes a CTMC implicitly: a dense state space
// 0..size-1 (the model owns the encode/decode bijection to whatever
// structured state it likes) plus a successor function that emits the
// outgoing transitions of one state. The engine in ctmc/generator.hpp
// consumes it straight into CSR — no retained labelled-transition list.
//
// Contract for for_each_transition:
//  * Rates must be non-negative; zero-rate emissions are ignored.
//  * Self-loops are allowed. They never enter the generator Q but do
//    accumulate into the per-label reward vectors (that is how bounded
//    queues record loss throughput).
//  * Rebinding contract: the emission pattern — which (state, to, label)
//    triples are emitted with a non-zero rate — must depend only on the
//    model's *structural* parameters (queue bounds, Erlang stages,
//    phase-type zero structure). Numerical parameters (arrival/service/
//    timer rates) may only change the rate values. Under that contract
//    GeneratorCtmc::rebind repopulates a frozen CSR pattern instead of
//    re-enumerating, which is the hot path of the t-sweeps and the
//    timeout optimiser.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "ctmc/ctmc.hpp"

namespace tags::ctmc {

/// Non-owning, non-allocating reference to an emit callback
/// `(index_t to, double rate, label_t label)`. Cheap enough to pass by
/// const reference through a virtual call per state.
class TransitionSink {
 public:
  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, TransitionSink>>>
  TransitionSink(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        fn_([](void* obj, index_t to, double rate, label_t label) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(to, rate, label);
        }) {}

  void operator()(index_t to, double rate, label_t label) const {
    fn_(obj_, to, rate, label);
  }

 private:
  void* obj_;
  void (*fn_)(void*, index_t, double, label_t);
};

class GeneratorModel {
 public:
  virtual ~GeneratorModel() = default;

  /// Number of states; states are the dense indices 0..size-1.
  [[nodiscard]] virtual index_t state_space_size() const = 0;

  /// Interned label names; index = label_t. Entry 0 must be "tau".
  /// Must not change between assemble and rebind.
  [[nodiscard]] virtual const std::vector<std::string>& transition_labels() const = 0;

  /// Emit every outgoing transition of `state`, in a deterministic order.
  virtual void for_each_transition(index_t state, const TransitionSink& emit) const = 0;

  /// A block id per state for the two-level Gauss-Seidel solve (see
  /// linalg/inflow_rows.hpp), ids 0..B-1 all used, or empty for none: the
  /// blocks a slow mode runs between. Structural, like the emission
  /// pattern, so assemble() attaches it once and rebind() keeps it.
  [[nodiscard]] virtual std::vector<index_t> partition() const { return {}; }
};

}  // namespace tags::ctmc
