// The hyper-exponential TAGS model (Figure 5): job demands are H2 — short
// (rate mu1) with probability alpha, long (rate mu2) otherwise. Only the
// head job's class is tracked (classes are i.i.d., so sampling the class
// when a job reaches the head of a queue is distributionally exact); at
// node 2 the class of a timed-out job is sampled at the end of its repeat
// service with the residual-life probability alpha' of Section 3.2.
//
// State (q1, c1, j1, q2, p2):
//   q1, j1, q2 as in TagsModel;
//   c1 in {kShort, kLong} — class of the node-1 head (kShort when empty);
//   p2 in 0..n          — repeat phase (timer position),
//        n+1            — serving a short job (rate mu1),
//        n+2            — serving a long job (rate mu2);
//   empty node 2 pins p2 = n.
//
// Labels as in TagsModel plus service1/service2 covering both classes.
#pragma once

#include "models/generator_base.hpp"

namespace tags::models {

struct TagsH2Params {
  double lambda = 11.0;
  double alpha = 0.99;  ///< probability a job is short
  double mu1 = 19.9;    ///< short-job service rate
  double mu2 = 0.199;   ///< long-job service rate
  double t = 50.0;      ///< timer phase rate
  unsigned n = 6;
  unsigned k1 = 10;
  unsigned k2 = 10;

  /// Mean service demand alpha/mu1 + (1-alpha)/mu2.
  [[nodiscard]] double mean_demand() const;
  /// Residual-class probability alpha' after surviving the Erlang(n+1, t)
  /// timeout (paper Section 3.2).
  [[nodiscard]] double alpha_prime() const;
  /// Construct rates from a mean demand and ratio mu1 = ratio * mu2 — the
  /// parameterisation of Figures 9-12.
  static TagsH2Params from_ratio(double lambda, double alpha, double ratio,
                                 double mean_demand, double t, unsigned n = 6,
                                 unsigned k1 = 10, unsigned k2 = 10);
};

class TagsH2Model : public SolvableModel {
 public:
  explicit TagsH2Model(const TagsH2Params& params);

  enum Class : unsigned { kShort = 0, kLong = 1 };

  struct State {
    unsigned q1;
    unsigned c1;      ///< Class of node-1 head (kShort when q1 == 0)
    unsigned j1;
    unsigned q2;
    unsigned phase2;  ///< 0..n repeat, n+1 serving short, n+2 serving long
  };

  [[nodiscard]] const TagsH2Params& params() const noexcept { return params_; }

  [[nodiscard]] ctmc::index_t encode(const State& s) const noexcept;
  [[nodiscard]] State decode(ctmc::index_t idx) const noexcept;

  /// (K1*2(n+1)+1) * (K2(n+3)+1).
  [[nodiscard]] static ctmc::index_t state_count(const TagsH2Params& p) noexcept;

  /// Repopulate rates for new lambda/alpha/mu1/mu2/t (alpha' is
  /// recomputed); throws std::invalid_argument if n/k1/k2 changed.
  void rebind(const TagsH2Params& params);

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
  TagsH2Params params_;
  double alpha_prime_ = 0.0;  ///< cached residual-class probability
  unsigned node1_states_ = 0;
  unsigned node2_states_ = 0;
};

}  // namespace tags::models
