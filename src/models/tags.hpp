// The paper's central model (Figure 3): a two-node TAGS system with
// bounded queues, Poisson arrivals, exponential service, and the
// deterministic timeout approximated by an Erlang process.
//
// State (q1, j1, q2, p2):
//   q1 in 0..K1  — jobs at node 1;
//   j1 in 0..n   — node-1 timer position (n fresh, 0 about to time out);
//                  frozen at n while the queue is empty;
//   q2 in 0..K2  — jobs at node 2;
//   p2           — node-2 head phase: kRepeat(j), j in 0..n (receiving the
//                  repeat service, the paper's unprimed Q2_i), or kServing
//                  (the residual exponential service, primed Q2'_i). The
//                  node-2 timer is frozen at n during kServing — see
//                  DESIGN.md note 2 on the Fig 3 / Fig 5 tick2 discrepancy.
//
// The timeout (and the equal-length repeat service) is Erlang(n+1, t):
// n ticks plus the final timeout/repeatservice phase, each Exp(t).
//
// Transition labels: arrival, service1, tick1, timeout (timed-out job
// admitted at node 2), timeout_lost (timed-out job dropped: queue 2 full),
// tick2, repeatservice, service2, loss1 (arrival dropped: queue 1 full).
#pragma once

#include "models/generator_base.hpp"

namespace tags::models {

struct TagsParams {
  double lambda = 5.0;  ///< arrival rate
  double mu = 10.0;     ///< service rate (both nodes; homogeneous system)
  double t = 50.0;      ///< timer phase rate; timeout period ~ Erlang(n+1, t)
  unsigned n = 6;       ///< timer ticks (paper: n = 6)
  unsigned k1 = 10;     ///< node-1 buffer
  unsigned k2 = 10;     ///< node-2 buffer

  /// Mean of the full timeout period, (n+1)/t.
  [[nodiscard]] double timeout_mean() const { return (n + 1) / t; }
};

class TagsModel : public SolvableModel {
 public:
  explicit TagsModel(const TagsParams& params);

  struct State {
    unsigned q1;     ///< 0..K1
    unsigned j1;     ///< 0..n (== n when q1 == 0)
    unsigned q2;     ///< 0..K2
    unsigned phase2; ///< 0..n = repeat with timer at phase2; n+1 = serving
                     ///< (== n when q2 == 0)
  };

  /// True when the node-2 head is in its residual service (phase2 == n+1).
  [[nodiscard]] bool is_serving2(const State& s) const noexcept {
    return s.q2 > 0 && s.phase2 == params_.n + 1;
  }

  [[nodiscard]] const TagsParams& params() const noexcept { return params_; }

  [[nodiscard]] ctmc::index_t encode(const State& s) const noexcept;
  [[nodiscard]] State decode(ctmc::index_t idx) const noexcept;

  /// Number of states the construction enumerates; matches the paper's
  /// formula (K1(n+1)+1)(K2(n+2)+1).
  [[nodiscard]] static ctmc::index_t state_count(const TagsParams& p) noexcept;

  /// Repopulate rates for new lambda/mu/t on the frozen state space;
  /// throws std::invalid_argument if n/k1/k2 changed.
  void rebind(const TagsParams& params);

  // GeneratorModel interface.
  [[nodiscard]] ctmc::index_t state_space_size() const override;
  [[nodiscard]] const std::vector<std::string>& transition_labels() const override;
  void for_each_transition(ctmc::index_t state,
                           const TransitionSink& emit) const override;
  /// One block per node-2 state: idx % node2_states.
  [[nodiscard]] std::vector<ctmc::index_t> partition() const override;

 protected:
  [[nodiscard]] ctmc::MeasureSpec measure_spec() const override;

 private:
  TagsParams params_;
  unsigned node1_states_ = 0;
  unsigned node2_states_ = 0;
};

}  // namespace tags::models
