// Incremental CTMC construction with interned action labels.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "linalg/coo.hpp"

namespace tags::ctmc {

class CtmcBuilder {
 public:
  CtmcBuilder();

  /// Intern an action name; returns a stable id. "tau" is pre-interned as 0.
  label_t label(std::string_view name);

  /// Record a transition. Self-loops (from == to) are kept in the labelled
  /// transition list (they matter for throughput/loss measures) but do not
  /// enter the generator. Zero-rate transitions are dropped entirely.
  void add(index_t from, index_t to, double rate, label_t label = kTau);
  void add(index_t from, index_t to, double rate, std::string_view label_name);

  /// Ensure the chain has at least n states (states are otherwise implied
  /// by the largest index seen).
  void ensure_states(index_t n);

  [[nodiscard]] index_t n_states() const noexcept { return n_states_; }
  [[nodiscard]] std::size_t n_transitions() const noexcept { return transitions_.size(); }

  /// Assemble the CTMC. The builder can be reused afterwards (it is left
  /// unchanged). `partition`, one block id per state or empty, is attached
  /// to the generator for the two-level Gauss-Seidel solve (see
  /// GeneratorModel::partition).
  [[nodiscard]] Ctmc build(std::vector<index_t> partition = {}) const;

 private:
  index_t n_states_ = 0;
  std::vector<Transition> transitions_;
  std::vector<std::string> label_names_;
  std::unordered_map<std::string, label_t> label_ids_;
};

}  // namespace tags::ctmc
