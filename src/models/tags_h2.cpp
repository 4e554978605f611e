#include "models/tags_h2.hpp"

#include <stdexcept>

#include "phasetype/residual.hpp"

namespace tags::models {

double TagsH2Params::mean_demand() const {
  return alpha / mu1 + (1.0 - alpha) / mu2;
}

double TagsH2Params::alpha_prime() const {
  return ph::h2_alpha_prime(alpha, mu1, mu2, n + 1, t);
}

TagsH2Params TagsH2Params::from_ratio(double lambda, double alpha, double ratio,
                                      double mean_demand, double t, unsigned n,
                                      unsigned k1, unsigned k2) {
  if (!(ratio > 0.0) || !(mean_demand > 0.0) || !(alpha > 0.0) || alpha >= 1.0) {
    throw std::invalid_argument("TagsH2Params::from_ratio: bad parameters");
  }
  TagsH2Params p;
  p.lambda = lambda;
  p.alpha = alpha;
  // mean = alpha/mu1 + (1-alpha)/mu2 with mu1 = ratio * mu2.
  p.mu2 = (alpha / ratio + (1.0 - alpha)) / mean_demand;
  p.mu1 = ratio * p.mu2;
  p.t = t;
  p.n = n;
  p.k1 = k1;
  p.k2 = k2;
  return p;
}

namespace {

unsigned node1_index(unsigned q1, unsigned c1, unsigned j1, unsigned n) {
  return q1 == 0 ? 0 : 1 + ((q1 - 1) * 2 + c1) * (n + 1) + j1;
}

unsigned node2_index(unsigned q2, unsigned phase2, unsigned n) {
  return q2 == 0 ? 0 : 1 + (q2 - 1) * (n + 3) + phase2;
}

enum Label : ctmc::label_t {
  kArrival = 1,
  kService1,
  kTick1,
  kTimeout,
  kTimeoutLost,
  kTick2,
  kRepeat,
  kService2,
  kLoss1,
};

const std::vector<std::string> kLabels = {
    "tau",          "arrival", "service1",      "tick1",    "timeout",
    "timeout_lost", "tick2",   "repeatservice", "service2", "loss1"};

}  // namespace

ctmc::index_t TagsH2Model::state_count(const TagsH2Params& p) noexcept {
  const auto n1 = static_cast<ctmc::index_t>(p.k1 * 2 * (p.n + 1) + 1);
  const auto n2 = static_cast<ctmc::index_t>(p.k2 * (p.n + 3) + 1);
  return n1 * n2;
}

ctmc::index_t TagsH2Model::encode(const State& s) const noexcept {
  const unsigned i1 = node1_index(s.q1, s.c1, s.j1, params_.n);
  const unsigned i2 = node2_index(s.q2, s.phase2, params_.n);
  return static_cast<ctmc::index_t>(i1) * node2_states_ + i2;
}

TagsH2Model::State TagsH2Model::decode(ctmc::index_t idx) const noexcept {
  const unsigned n = params_.n;
  const auto i1 = static_cast<unsigned>(idx / node2_states_);
  const auto i2 = static_cast<unsigned>(idx % node2_states_);
  State s{};
  if (i1 == 0) {
    s.q1 = 0;
    s.c1 = kShort;
    s.j1 = n;
  } else {
    const unsigned rest = i1 - 1;
    s.j1 = rest % (n + 1);
    const unsigned qc = rest / (n + 1);
    s.c1 = qc % 2;
    s.q1 = 1 + qc / 2;
  }
  if (i2 == 0) {
    s.q2 = 0;
    s.phase2 = n;
  } else {
    s.q2 = 1 + (i2 - 1) / (n + 3);
    s.phase2 = (i2 - 1) % (n + 3);
  }
  return s;
}

TagsH2Model::TagsH2Model(const TagsH2Params& params) : params_(params) {
  node1_states_ = params_.k1 * 2 * (params_.n + 1) + 1;
  node2_states_ = params_.k2 * (params_.n + 3) + 1;
  alpha_prime_ = params_.alpha_prime();
  assemble();
}

void TagsH2Model::rebind(const TagsH2Params& params) {
  if (params.n != params_.n || params.k1 != params_.k1 || params.k2 != params_.k2) {
    throw std::invalid_argument(
        "TagsH2Model::rebind: n/k1/k2 are structural; construct a new model");
  }
  params_ = params;
  alpha_prime_ = params_.alpha_prime();
  rebind_rates();
}

ctmc::index_t TagsH2Model::state_space_size() const {
  return static_cast<ctmc::index_t>(node1_states_) * node2_states_;
}

const std::vector<std::string>& TagsH2Model::transition_labels() const {
  return kLabels;
}

std::vector<ctmc::index_t> TagsH2Model::partition() const {
  return node2_partition(state_space_size(), node2_states_);
}

void TagsH2Model::for_each_transition(ctmc::index_t state,
                                      const TransitionSink& emit) const {
  const unsigned n = params_.n;
  const unsigned k1 = params_.k1;
  const unsigned k2 = params_.k2;
  const unsigned serving_short = n + 1;
  const unsigned serving_long = n + 2;
  const double alpha = params_.alpha;
  const double aprime = alpha_prime_;
  const State s = decode(state);

  // Head departure at node 1: the next head's class is freshly sampled
  // (branch alpha / 1-alpha); an emptied queue pins (kShort, n).
  const auto node1_departure = [&](double rate, unsigned q2_next, unsigned p2_next,
                                   ctmc::label_t label) {
    if (s.q1 >= 2) {
      emit(encode({s.q1 - 1, kShort, n, q2_next, p2_next}), rate * alpha, label);
      emit(encode({s.q1 - 1, kLong, n, q2_next, p2_next}), rate * (1.0 - alpha),
           label);
    } else {
      emit(encode({0, kShort, n, q2_next, p2_next}), rate, label);
    }
  };

  // --- Node 1 ---
  if (s.q1 < k1) {
    if (s.q1 == 0) {
      // The arriving job becomes the head: sample its class now.
      emit(encode({1, kShort, n, s.q2, s.phase2}), params_.lambda * alpha, kArrival);
      emit(encode({1, kLong, n, s.q2, s.phase2}), params_.lambda * (1.0 - alpha),
           kArrival);
    } else {
      emit(encode({s.q1 + 1, s.c1, s.j1, s.q2, s.phase2}), params_.lambda, kArrival);
    }
  } else {
    emit(state, params_.lambda, kLoss1);
  }
  if (s.q1 >= 1) {
    const double mu_head = s.c1 == kShort ? params_.mu1 : params_.mu2;
    node1_departure(mu_head, s.q2, s.phase2, kService1);
    if (s.j1 >= 1) {
      emit(encode({s.q1, s.c1, s.j1 - 1, s.q2, s.phase2}), params_.t, kTick1);
    } else {
      if (s.q2 < k2) {
        const unsigned p2 = s.q2 == 0 ? n : s.phase2;
        node1_departure(params_.t, s.q2 + 1, p2, kTimeout);
      } else {
        node1_departure(params_.t, s.q2, s.phase2, kTimeoutLost);
      }
    }
  }

  // --- Node 2 ---
  if (s.q2 >= 1) {
    if (s.phase2 == serving_short || s.phase2 == serving_long) {
      const double mu_head = s.phase2 == serving_short ? params_.mu1 : params_.mu2;
      emit(encode({s.q1, s.c1, s.j1, s.q2 - 1, n}), mu_head, kService2);
    } else if (s.phase2 >= 1) {
      emit(encode({s.q1, s.c1, s.j1, s.q2, s.phase2 - 1}), params_.t, kTick2);
    } else {
      // Repeat ends: sample the timed-out job's class with alpha'.
      emit(encode({s.q1, s.c1, s.j1, s.q2, serving_short}), params_.t * aprime,
           kRepeat);
      emit(encode({s.q1, s.c1, s.j1, s.q2, serving_long}),
           params_.t * (1.0 - aprime), kRepeat);
    }
  }
}

ctmc::MeasureSpec TagsH2Model::measure_spec() const {
  ctmc::MeasureSpec spec;
  spec.queue1 = [this](ctmc::index_t i) { return static_cast<double>(decode(i).q1); };
  spec.queue2 = [this](ctmc::index_t i) { return static_cast<double>(decode(i).q2); };
  spec.service_labels = {"service1", "service2"};
  spec.loss1_labels = {"loss1"};
  spec.loss2_labels = {"timeout_lost"};
  return spec;
}

}  // namespace tags::models
