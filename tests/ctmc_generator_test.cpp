// The generator-model engine: streaming CSR assembly, rate rebinding on a
// frozen sparsity pattern, per-label reward vectors, and equivalence with
// the classic CtmcBuilder path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctmc/generator.hpp"
#include "ctmc/generator_model.hpp"
#include "ctmc/measures.hpp"
#include "ctmc/reachability.hpp"
#include "ctmc/steady_state.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;

// A 3-state toy whose sparsity pattern depends on `extra` being non-zero:
// ring 0 -> 1 -> 2 -> 0 at rate r, plus a chord 0 -> 2 when extra > 0.
class RingModel final : public ctmc::GeneratorModel {
 public:
  RingModel(double r, double extra) : r_(r), extra_(extra) {}

  [[nodiscard]] ctmc::index_t state_space_size() const override { return 3; }

  [[nodiscard]] const std::vector<std::string>& transition_labels() const override {
    static const std::vector<std::string> kLabels = {"tau", "step", "chord"};
    return kLabels;
  }

  void for_each_transition(ctmc::index_t s,
                           const ctmc::TransitionSink& emit) const override {
    emit((s + 1) % 3, r_, 1);
    if (s == 0) emit(2, extra_, 2);
  }

  double r_;
  double extra_;
};

void expect_same_csr(const linalg::CsrMatrix& a, const linalg::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (ctmc::index_t i = 0; i < a.rows(); ++i) {
    const auto ac = a.row_cols(i);
    const auto bc = b.row_cols(i);
    const auto av = a.row_vals(i);
    const auto bv = b.row_vals(i);
    ASSERT_EQ(ac.size(), bc.size()) << "row " << i;
    for (std::size_t k = 0; k < ac.size(); ++k) {
      EXPECT_EQ(ac[k], bc[k]) << "row " << i;
      EXPECT_EQ(av[k], bv[k]) << "row " << i << " col " << ac[k];  // bit-identical
    }
  }
}

TEST(GeneratorEngine, AssembleMatchesMaterializedBuilderChain) {
  models::TagsParams p;
  p.t = 40.0;
  p.n = 3;
  p.k1 = p.k2 = 4;
  const models::TagsModel m(p);
  const ctmc::Ctmc classic = m.to_ctmc();
  ASSERT_EQ(classic.n_states(), m.n_states());
  expect_same_csr(m.chain().generator(), classic.generator());
  EXPECT_TRUE(m.chain().is_valid_generator());
  EXPECT_TRUE(ctmc::is_irreducible(m.chain()));
}

TEST(GeneratorEngine, RebindReproducesFreshAssembleBitForBit) {
  models::TagsParams p;
  p.t = 30.0;
  models::TagsModel rebound(p);
  p.t = 51.0;
  rebound.rebind(p);
  const models::TagsModel fresh(p);

  expect_same_csr(rebound.chain().generator(), fresh.chain().generator());
  EXPECT_EQ(rebound.chain().max_exit_rate(), fresh.chain().max_exit_rate());

  const auto& labels = rebound.transition_labels();
  for (std::size_t l = 0; l < labels.size(); ++l) {
    const auto ra = rebound.chain().label_rewards(static_cast<ctmc::label_t>(l));
    const auto rb = fresh.chain().label_rewards(static_cast<ctmc::label_t>(l));
    ASSERT_EQ(ra.size(), rb.size()) << labels[l];
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].state, rb[i].state) << labels[l];
      EXPECT_EQ(ra[i].rate, rb[i].rate) << labels[l];
    }
  }
}

TEST(GeneratorEngine, RebindRoundTripRestoresOriginalValues) {
  models::TagsH2Params p = models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, 16.0);
  models::TagsH2Model m(p);
  const linalg::CsrMatrix before = m.chain().generator();
  auto shifted = p;
  shifted.t = 23.0;
  shifted.lambda = 8.0;
  m.rebind(shifted);
  m.rebind(p);
  expect_same_csr(m.chain().generator(), before);
}

TEST(GeneratorEngine, StructuralParameterChangeThrows) {
  models::TagsParams p;
  models::TagsModel m(p);
  auto bigger = p;
  bigger.k1 = p.k1 + 1;
  EXPECT_THROW(m.rebind(bigger), std::invalid_argument);
  auto finer = p;
  finer.n = p.n + 1;
  EXPECT_THROW(m.rebind(finer), std::invalid_argument);
}

TEST(GeneratorEngine, PatternMismatchOnRebindThrowsLogicError) {
  // Assembled without the chord: rebinding with the chord present emits
  // outside the frozen pattern.
  RingModel model(2.0, 0.0);
  ctmc::GeneratorCtmc engine;
  engine.assemble(model);
  EXPECT_EQ(engine.nnz(), 6);  // 3 off-diagonals + 3 diagonals
  model.extra_ = 1.0;
  EXPECT_THROW(engine.rebind(model), std::logic_error);

  // The other direction (an edge vanishing) only zeroes a slot: legal.
  RingModel with_chord(2.0, 0.5);
  ctmc::GeneratorCtmc engine2;
  engine2.assemble(with_chord);
  with_chord.extra_ = 0.0;
  EXPECT_NO_THROW(engine2.rebind(with_chord));
  EXPECT_TRUE(engine2.is_valid_generator());
}

TEST(GeneratorEngine, DuplicateEmissionsCoalesceAndSelfLoopsStayOut) {
  // Both ring step and chord leave state 0 toward 2 when r == extra picks
  // the same column twice? No — step from 0 goes to 1. Use a dedicated toy.
  class DupModel final : public ctmc::GeneratorModel {
   public:
    [[nodiscard]] ctmc::index_t state_space_size() const override { return 2; }
    [[nodiscard]] const std::vector<std::string>& transition_labels() const override {
      static const std::vector<std::string> kLabels = {"tau", "a", "b"};
      return kLabels;
    }
    void for_each_transition(ctmc::index_t s,
                             const ctmc::TransitionSink& emit) const override {
      if (s == 0) {
        emit(1, 1.5, 1);
        emit(1, 2.5, 2);  // duplicate (0, 1) edge under a different label
        emit(0, 9.0, 2);  // self-loop: reward only, not in Q
      } else {
        emit(0, 4.0, 1);
      }
    }
  };
  DupModel model;
  ctmc::GeneratorCtmc engine;
  engine.assemble(model);
  const auto& q = engine.generator();
  // Row 0: diagonal -4 and the coalesced (0,1) entry 1.5 + 2.5; the
  // self-loop contributes to neither.
  ASSERT_EQ(q.row_cols(0).size(), 2u);
  EXPECT_EQ(q.at(0, 1), 4.0);
  EXPECT_EQ(q.at(0, 0), -4.0);
  EXPECT_TRUE(engine.is_valid_generator());
  // ...but the self-loop still counts toward label "b" throughput.
  const std::vector<double> pi = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(engine.throughput(pi, "b"), 0.5 * (2.5 + 9.0));
  EXPECT_DOUBLE_EQ(engine.throughput(pi, "a"), 0.5 * 1.5 + 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(engine.throughput(pi, "no-such-label"), 0.0);
}

TEST(GeneratorEngine, RewardThroughputMatchesClassicTransitionScan) {
  models::TagsParams p;
  p.t = 51.0;
  p.n = 4;
  p.k1 = p.k2 = 6;
  const models::TagsModel m(p);
  const auto solved = m.solve();
  ASSERT_TRUE(solved.converged);
  const ctmc::Ctmc classic = m.to_ctmc();
  for (const std::string& label :
       {std::string("arrival"), std::string("service1"), std::string("service2"),
        std::string("timeout"), std::string("timeout_lost"), std::string("loss1")}) {
    const double gen = m.chain().throughput(solved.pi, label);
    const double cls = ctmc::throughput(classic, solved.pi, label);
    EXPECT_NEAR(gen, cls, 1e-9 * std::max(1.0, std::abs(cls))) << label;
  }
}

TEST(GeneratorEngine, SteadyStateOnCsrMatchesCtmcOverload) {
  models::TagsParams p;
  p.n = 2;
  p.k1 = p.k2 = 3;
  const models::TagsModel m(p);
  const auto from_csr = ctmc::steady_state(m.chain().generator());
  const auto from_ctmc = ctmc::steady_state(m.to_ctmc());
  ASSERT_TRUE(from_csr.converged);
  ASSERT_TRUE(from_ctmc.converged);
  ASSERT_EQ(from_csr.pi.size(), from_ctmc.pi.size());
  for (std::size_t i = 0; i < from_csr.pi.size(); ++i) {
    EXPECT_NEAR(from_csr.pi[i], from_ctmc.pi[i], 1e-10);
  }
}

TEST(GeneratorEngine, WarmStartCountersTrackReuse) {
  models::TagsParams p;
  p.n = 2;
  p.k1 = p.k2 = 3;
  const models::TagsModel m(p);
  obs::Counter hits("ctmc.steady_state.warm_start.hits");
  obs::Counter misses("ctmc.steady_state.warm_start.misses");
  obs::Counter cleared("ctmc.steady_state.warm_start.cleared");

  const auto cold = m.solve();
  ASSERT_TRUE(cold.converged);

  ctmc::SteadyStateOptions opts;
  opts.initial_guess = cold.pi;
  const auto h0 = hits.value();
  (void)m.solve(opts);
  EXPECT_EQ(hits.value(), h0 + 1);

  opts.initial_guess = linalg::Vec{0.5, 0.5};  // wrong dimension
  const auto m0 = misses.value();
  (void)m.solve(opts);
  EXPECT_EQ(misses.value(), m0 + 1);

  // reconcile_warm_start drops the stale guess before the solver sees it.
  const auto c0 = cleared.value();
  ctmc::reconcile_warm_start(opts, m.n_states());
  EXPECT_FALSE(opts.initial_guess.has_value());
  EXPECT_EQ(cleared.value(), c0 + 1);
  opts.initial_guess = cold.pi;
  ctmc::reconcile_warm_start(opts, m.n_states());
  EXPECT_TRUE(opts.initial_guess.has_value());
  EXPECT_EQ(cleared.value(), c0 + 1);
}

TEST(GeneratorEngine, RebindIsCheaperThanAssembleOnCounters) {
  obs::Counter assembles("ctmc.generator.assembles");
  obs::Counter rebinds("ctmc.generator.rebinds");
  const auto a0 = assembles.value();
  const auto r0 = rebinds.value();
  models::TagsParams p;
  models::TagsModel m(p);
  for (double t : {20.0, 30.0, 40.0}) {
    p.t = t;
    m.rebind(p);
  }
  EXPECT_EQ(assembles.value(), a0 + 1);
  EXPECT_EQ(rebinds.value(), r0 + 3);
  EXPECT_TRUE(m.chain().is_valid_generator());
}

}  // namespace
