// CTMC construction, reachability, steady state, and measures — validated
// against birth-death closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <tuple>

#include "ctmc/builder.hpp"
#include "ctmc/measures.hpp"
#include "ctmc/reachability.hpp"
#include "ctmc/steady_state.hpp"
#include "models/mm1k.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;
using ctmc::CtmcBuilder;

TEST(Builder, GeneratorDiagonalsBalanceRows) {
  CtmcBuilder b;
  b.add(0, 1, 2.0, "go");
  b.add(1, 0, 3.0, "back");
  const ctmc::Ctmc chain = b.build();
  EXPECT_TRUE(chain.is_valid_generator());
  EXPECT_DOUBLE_EQ(chain.generator().at(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(chain.generator().at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(chain.generator().at(1, 1), -3.0);
}

TEST(Builder, SelfLoopsExcludedFromGeneratorButKeptAsTransitions) {
  CtmcBuilder b;
  b.add(0, 0, 5.0, "loss");
  b.add(0, 1, 1.0, "go");
  b.add(1, 0, 1.0, "back");
  const ctmc::Ctmc chain = b.build();
  EXPECT_DOUBLE_EQ(chain.generator().at(0, 0), -1.0);  // only the real exit
  EXPECT_EQ(chain.transitions().size(), 3u);
  const auto result = ctmc::steady_state(chain);
  EXPECT_NEAR(ctmc::throughput(chain, result.pi, "loss"), 5.0 * 0.5, 1e-9);
}

TEST(Builder, ZeroRateDropped) {
  CtmcBuilder b;
  b.add(0, 1, 0.0, "never");
  EXPECT_EQ(b.n_transitions(), 0u);
}

TEST(Builder, LabelsInterned) {
  CtmcBuilder b;
  const auto a1 = b.label("alpha");
  const auto a2 = b.label("alpha");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b.label("tau"), ctmc::kTau);
}

TEST(Ctmc, ExitRatesAndMax) {
  CtmcBuilder b;
  b.add(0, 1, 2.0);
  b.add(1, 0, 7.0);
  const auto chain = b.build();
  const auto exits = chain.exit_rates();
  EXPECT_DOUBLE_EQ(exits[0], 2.0);
  EXPECT_DOUBLE_EQ(exits[1], 7.0);
  EXPECT_DOUBLE_EQ(chain.max_exit_rate(), 7.0);
}

TEST(Ctmc, FindLabel) {
  CtmcBuilder b;
  b.add(0, 1, 1.0, "x");
  const auto chain = b.build();
  EXPECT_GE(chain.find_label("x"), 1);
  EXPECT_EQ(chain.find_label("nope"), -1);
}

TEST(Reachability, IrreducibleAndNot) {
  CtmcBuilder b;
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  EXPECT_TRUE(ctmc::is_irreducible(b.build()));

  CtmcBuilder b2;
  b2.add(0, 1, 1.0);
  b2.add(1, 2, 1.0);
  b2.add(2, 1, 1.0);  // state 0 is transient
  EXPECT_FALSE(ctmc::is_irreducible(b2.build()));
}

TEST(Reachability, AbsorbingStates) {
  CtmcBuilder b;
  b.add(0, 1, 1.0);
  b.ensure_states(2);
  const auto chain = b.build();
  const auto abs = ctmc::absorbing_states(chain);
  ASSERT_EQ(abs.size(), 1u);
  EXPECT_EQ(abs[0], 1);
}

TEST(Reachability, ExploreEnumeratesImplicitModel) {
  // Random walk on 0..4 as an implicit model.
  struct State {
    int x;
    bool operator==(const State& o) const { return x == o.x; }
  };
  struct Hash {
    std::size_t operator()(const State& s) const { return std::hash<int>()(s.x); }
  };
  // ctmc::explore needs std::hash, so use int directly.
  const auto succ = [](int x) {
    std::vector<ctmc::Move<int>> moves;
    if (x < 4) moves.push_back({x + 1, 1.0, "up"});
    if (x > 0) moves.push_back({x - 1, 2.0, "down"});
    return moves;
  };
  auto ex = ctmc::explore(0, succ);
  EXPECT_EQ(ex.states.size(), 5u);
  const auto chain = ex.builder.build();
  EXPECT_TRUE(ctmc::is_irreducible(chain));
  EXPECT_TRUE(chain.is_valid_generator());
}

TEST(Reachability, ExploreRespectsStateLimit) {
  const auto succ = [](int x) {
    return std::vector<ctmc::Move<int>>{{x + 1, 1.0, ""}};
  };
  EXPECT_THROW((void)ctmc::explore(0, succ, 100), std::runtime_error);
}

// Birth-death chains vs the M/M/1/K closed form, across solver methods.
using BdCase = std::tuple<double, double, unsigned, ctmc::SteadyStateMethod>;

class BirthDeathTest : public ::testing::TestWithParam<BdCase> {};

TEST_P(BirthDeathTest, MatchesClosedForm) {
  const auto [lambda, mu, k, method] = GetParam();
  const models::Mm1kParams params{lambda, mu, k};
  const auto chain = models::mm1k_ctmc(params);
  const auto analytic = models::mm1k_analytic(params);

  ctmc::SteadyStateOptions opts;
  opts.method = method;
  opts.tol = 1e-12;
  const auto result = ctmc::steady_state(chain, opts);
  ASSERT_TRUE(result.converged);
  for (unsigned i = 0; i <= k; ++i) {
    EXPECT_NEAR(result.pi[i], analytic.pi[i], 1e-8) << "state " << i;
  }
  EXPECT_NEAR(ctmc::throughput(chain, result.pi, "service"), analytic.throughput, 1e-7);
  EXPECT_NEAR(ctmc::throughput(chain, result.pi, "loss"), analytic.loss_rate, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BirthDeathTest,
    ::testing::Combine(::testing::Values(0.5, 2.0, 5.0, 9.9),
                       ::testing::Values(1.0, 10.0),
                       ::testing::Values(1u, 3u, 10u, 25u),
                       ::testing::Values(ctmc::SteadyStateMethod::kDenseLu,
                                         ctmc::SteadyStateMethod::kGaussSeidel,
                                         ctmc::SteadyStateMethod::kPower)));

TEST(SteadyState, WarmStartGivesSameAnswer) {
  const models::Mm1kParams params{3.0, 5.0, 12};
  const auto chain = models::mm1k_ctmc(params);
  const auto cold = ctmc::steady_state(chain);
  ctmc::SteadyStateOptions opts;
  opts.initial_guess = cold.pi;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto warm = ctmc::steady_state(chain, opts);
  ASSERT_TRUE(warm.converged);
  EXPECT_NEAR(linalg::max_abs_diff(cold.pi, warm.pi), 0.0, 1e-8);
  EXPECT_LE(warm.iterations, 32);
}

#if TAGS_OBS_ENABLED
/// The sweep direction a Gauss-Seidel solve of `chain` records on its span.
std::string gauss_seidel_direction(const ctmc::Ctmc& chain) {
  obs::reset_metrics();
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  EXPECT_TRUE(ctmc::steady_state(chain, opts).certificate.ok());
  for (const obs::SpanRecord& rec : obs::span_records()) {
    if (rec.name != "solve/gauss-seidel") continue;
    for (const auto& [key, value] : rec.str) {
      if (key == "direction") return value;
    }
  }
  return "";
}

TEST(SteadyState, GaussSeidelSweepsForwardWhenUpAndDownMassTie) {
  const auto chain = [](double rate_2_to_1) {
    CtmcBuilder b;
    b.add(0, 1, 2.0, "a");
    b.add(1, 2, 1.0, "a");
    b.add(1, 0, 1.0, "a");
    b.add(2, 0, 1.0, "a");
    b.add(2, 1, rate_2_to_1, "a");
    return b.build();
  };
  // Upward rate mass 2 + 1 equals downward mass 1 + 1 + 1.
  EXPECT_EQ(gauss_seidel_direction(chain(1.0)), "forward");
  // Any extra downward mass turns the sweep around.
  EXPECT_EQ(gauss_seidel_direction(chain(1.5)), "backward");
}
#endif

// An irreducible 400-state chain whose rates span twelve decades, with
// transitions both up and down the state order.
ctmc::Ctmc stiff_random_chain() {
  constexpr int kStates = 400;
  std::mt19937_64 rng(20061);
  std::uniform_real_distribution<double> decade(-6.0, 6.0);
  std::uniform_int_distribution<int> state(0, kStates - 1);
  CtmcBuilder b;
  for (int i = 0; i < kStates; ++i) {
    b.add(i, (i + 1) % kStates, std::pow(10.0, decade(rng)), "ring");  // irreducible
    for (int e = 0; e < 3; ++e) {
      const int j = state(rng);
      if (j != i) b.add(i, j, std::pow(10.0, decade(rng)), "jump");
    }
  }
  return b.build();
}

// pi is renormalised only where the residual is checked, so its scale
// drifts between checks. The stiff chain, started from the uniform vector,
// must still end finite and certified.
TEST(GaussSeidelSweeps, StiffRandomChainCertifiesWithFiniteEntries) {
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto r = ctmc::steady_state(stiff_random_chain(), opts);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.certificate.ok());
  ASSERT_EQ(r.pi.size(), 400u);
  for (const double v : r.pi) EXPECT_TRUE(std::isfinite(v));
}

// The sweep loop checks its residual on its own diagonal-free copy of Q^T;
// the value it reports must be ||pi Q||_inf computed over Q^T itself, to
// the bit, or the loop would stop at a different sweep.
TEST(GaussSeidelSweeps, ReportedResidualIsTheBalanceResidualToTheBit) {
  const auto expect_exact_residual = [](const ctmc::Ctmc& chain) {
    for (const int max_iter : {0, 5, 200000}) {
      ctmc::SteadyStateOptions opts;
      opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
      opts.certify = false;
      opts.max_iter = max_iter;
      const auto r = ctmc::steady_state(chain, opts);
      linalg::Vec y(r.pi.size());
      chain.generator().transpose_cache().multiply(r.pi, y);
      EXPECT_EQ(r.residual, linalg::nrm_inf(y)) << "max_iter " << max_iter;
    }
  };
  expect_exact_residual(stiff_random_chain());
  // State 4 has no exit rate (its self-loop is not in the generator).
  CtmcBuilder b;
  b.add(0, 1, 3.0, "a");
  b.add(0, 3, 0.25, "a");
  b.add(1, 0, 1.0, "a");
  b.add(1, 2, 0.5, "a");
  b.add(2, 1, 2.0, "a");
  b.add(3, 0, 1.0, "a");
  b.add(3, 4, 0.5, "a");
  b.add(4, 4, 1.0, "loop");
  expect_exact_residual(b.build());
}

// With no iterations allowed, both iterative methods hand back the start
// vector, with its own balance residual and, since it is not stationary,
// unconverged.
TEST(SteadyState, ZeroIterationBudgetReportsTheStartVector) {
  const auto chain = models::mm1k_ctmc(models::Mm1kParams{3.0, 5.0, 12});
  const auto n = static_cast<std::size_t>(chain.n_states());
  const linalg::Vec start(n, 1.0 / static_cast<double>(n));  // the default start
  linalg::Vec y(n);
  chain.generator().transpose_cache().multiply(start, y);
  const double start_residual = linalg::nrm_inf(y);
  ASSERT_GT(start_residual, 1e-3);
  for (const auto method :
       {ctmc::SteadyStateMethod::kGaussSeidel, ctmc::SteadyStateMethod::kPower}) {
    ctmc::SteadyStateOptions opts;
    opts.method = method;
    opts.max_iter = 0;
    const auto r = ctmc::steady_state(chain, opts);
    EXPECT_FALSE(r.converged) << ctmc::to_string(method);
    EXPECT_EQ(r.iterations, 0) << ctmc::to_string(method);
    EXPECT_EQ(r.residual, start_residual) << ctmc::to_string(method);
    EXPECT_EQ(r.pi, start) << ctmc::to_string(method);
  }
}

// A state with no exit rate is skipped by the sweep: here it has no inflow
// either, and keeps its share of the starting vector while the rest of the
// chain is already balanced.
TEST(GaussSeidelSweeps, RowWithZeroExitRateKeepsItsValue) {
  CtmcBuilder b;
  b.add(1, 2, 1.0, "a");
  b.add(2, 1, 1.0, "a");
  const ctmc::Ctmc chain = b.build();
  ASSERT_EQ(chain.n_states(), 3);
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  opts.initial_guess = linalg::Vec{0.5, 0.25, 0.25};
  const auto r = ctmc::steady_state(chain, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.pi, (linalg::Vec{0.5, 0.25, 0.25}));
}

TEST(Measures, ExpectedValueAndProbability) {
  linalg::Vec pi{0.25, 0.25, 0.5};
  EXPECT_DOUBLE_EQ(
      ctmc::expected_value(pi, [](ctmc::index_t i) { return static_cast<double>(i); }),
      0.25 + 1.0);
  EXPECT_DOUBLE_EQ(ctmc::probability(pi, [](ctmc::index_t i) { return i >= 1; }), 0.75);
  linalg::Vec reward{0.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(ctmc::expected_reward(pi, reward), 0.5 + 2.0);
}

}  // namespace
