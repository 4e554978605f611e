#include "models/tags.hpp"

#include <stdexcept>

namespace tags::models {

namespace {

/// Node-1 local index: 0 = empty (timer pinned at n); else 1 + (q1-1)(n+1) + j1.
unsigned node1_index(unsigned q1, unsigned j1, unsigned n) {
  return q1 == 0 ? 0 : 1 + (q1 - 1) * (n + 1) + j1;
}

/// Node-2 local index: 0 = empty; else 1 + (q2-1)(n+2) + phase2.
unsigned node2_index(unsigned q2, unsigned phase2, unsigned n) {
  return q2 == 0 ? 0 : 1 + (q2 - 1) * (n + 2) + phase2;
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

ctmc::index_t TagsModel::state_count(const TagsParams& p) noexcept {
  const auto n1 = static_cast<ctmc::index_t>(p.k1 * (p.n + 1) + 1);
  const auto n2 = static_cast<ctmc::index_t>(p.k2 * (p.n + 2) + 1);
  return n1 * n2;
}

ctmc::index_t TagsModel::encode(const State& s) const noexcept {
  const unsigned i1 = node1_index(s.q1, s.j1, params_.n);
  const unsigned i2 = node2_index(s.q2, s.phase2, params_.n);
  return static_cast<ctmc::index_t>(i1) * node2_states_ + i2;
}

TagsModel::State TagsModel::decode(ctmc::index_t idx) const noexcept {
  const unsigned n = params_.n;
  const auto i1 = static_cast<unsigned>(idx / node2_states_);
  const auto i2 = static_cast<unsigned>(idx % node2_states_);
  State s{};
  if (i1 == 0) {
    s.q1 = 0;
    s.j1 = n;
  } else {
    s.q1 = 1 + (i1 - 1) / (n + 1);
    s.j1 = (i1 - 1) % (n + 1);
  }
  if (i2 == 0) {
    s.q2 = 0;
    s.phase2 = n;
  } else {
    s.q2 = 1 + (i2 - 1) / (n + 2);
    s.phase2 = (i2 - 1) % (n + 2);
  }
  return s;
}

TagsModel::TagsModel(const TagsParams& params) : params_(params) {
  node1_states_ = params_.k1 * (params_.n + 1) + 1;
  node2_states_ = params_.k2 * (params_.n + 2) + 1;
  assemble();
}

void TagsModel::rebind(const TagsParams& params) {
  if (params.n != params_.n || params.k1 != params_.k1 || params.k2 != params_.k2) {
    throw std::invalid_argument(
        "TagsModel::rebind: n/k1/k2 are structural; construct a new model");
  }
  params_ = params;
  rebind_rates();
}

ctmc::index_t TagsModel::state_space_size() const {
  return static_cast<ctmc::index_t>(node1_states_) * node2_states_;
}

const std::vector<std::string>& TagsModel::transition_labels() const { return kLabels; }

std::vector<ctmc::index_t> TagsModel::partition() const {
  return node2_partition(state_space_size(), node2_states_);
}

void TagsModel::for_each_transition(ctmc::index_t state,
                                    const TransitionSink& emit) const {
  const unsigned n = params_.n;
  const unsigned serving = n + 1;  // phase2 value for the residual service
  const State s = decode(state);

  // --- Node 1 ---
  if (s.q1 < params_.k1) {
    emit(encode({s.q1 + 1, s.j1, s.q2, s.phase2}), params_.lambda, kArrival);
  } else {
    emit(state, params_.lambda, kLoss1);
  }
  if (s.q1 >= 1) {
    // Service completes: head departs, timer resets.
    emit(encode({s.q1 - 1, n, s.q2, s.phase2}), params_.mu, kService1);
    if (s.j1 >= 1) {
      emit(encode({s.q1, s.j1 - 1, s.q2, s.phase2}), params_.t, kTick1);
    } else {
      // Timeout fires: head restarts at node 2 (or is dropped), node-1
      // timer resets for the next job.
      if (s.q2 < params_.k2) {
        // Arriving at an empty node 2, the head starts a fresh repeat
        // (phase n); otherwise the head's phase is untouched.
        const unsigned p2 = s.q2 == 0 ? n : s.phase2;
        emit(encode({s.q1 - 1, n, s.q2 + 1, p2}), params_.t, kTimeout);
      } else {
        emit(encode({s.q1 - 1, n, s.q2, s.phase2}), params_.t, kTimeoutLost);
      }
    }
  }

  // --- Node 2 ---
  if (s.q2 >= 1) {
    if (s.phase2 == serving) {
      // Residual service completes; next head starts a fresh repeat.
      emit(encode({s.q1, s.j1, s.q2 - 1, n}), params_.mu, kService2);
    } else if (s.phase2 >= 1) {
      emit(encode({s.q1, s.j1, s.q2, s.phase2 - 1}), params_.t, kTick2);
    } else {
      // Repeat service period ends; the residual service begins.
      emit(encode({s.q1, s.j1, s.q2, serving}), params_.t, kRepeat);
    }
  }
}

ctmc::MeasureSpec TagsModel::measure_spec() const {
  ctmc::MeasureSpec spec;
  spec.queue1 = [this](ctmc::index_t i) { return static_cast<double>(decode(i).q1); };
  spec.queue2 = [this](ctmc::index_t i) { return static_cast<double>(decode(i).q2); };
  spec.service_labels = {"service1", "service2"};
  spec.loss1_labels = {"loss1"};
  spec.loss2_labels = {"timeout_lost"};
  return spec;
}

}  // namespace tags::models
