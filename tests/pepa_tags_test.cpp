// The paper's models expressed in PEPA, derived through the engine and
// checked against the direct CTMC builders — state counts (including the
// published 4331) and steady-state measures.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "ctmc/reachability.hpp"
#include "ctmc/steady_state.hpp"
#include "models/pepa_sources.hpp"
#include "pepa/parser.hpp"
#include "pepa/to_ctmc.hpp"
#include "pepa/validate.hpp"

namespace {

using namespace tags;

TEST(PaperStateCounts, QuotedCountIsFormulaAtN5) {
  // Section 5 quotes "a model of 4331 states" for n = 6, K = 10, but
  // (K1(n+1)+1)(K2(n+2)+1) gives 4331 = 61 * 71 exactly at n = 5 — see
  // DESIGN.md. Both counts must be produced by both constructions.
  models::TagsParams p;
  p.n = 5;
  EXPECT_EQ(models::TagsModel::state_count(p), 4331);
  EXPECT_EQ(models::TagsModel(p).n_states(), 4331);
  p.n = 6;
  EXPECT_EQ(models::TagsModel::state_count(p), 5751);
  EXPECT_EQ(models::TagsModel(p).n_states(), 5751);
}

TEST(PaperStateCounts, PepaDerivationAgrees) {
  for (unsigned n : {5u, 6u}) {
    models::TagsParams p;
    p.n = n;
    const auto dm = pepa::derive(pepa::parse_model(models::tags_pepa_source(p)), "System");
    EXPECT_EQ(dm.chain.n_states(), models::TagsModel::state_count(p)) << "n=" << n;
    EXPECT_TRUE(ctmc::is_irreducible(dm.chain));
  }
}

class TagsPepaAgreement : public ::testing::TestWithParam<double> {};

TEST_P(TagsPepaAgreement, MetricsMatchDirectBuilder) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = GetParam();
  p.n = 3;  // smaller for speed; structure identical
  p.k1 = p.k2 = 4;

  const models::TagsModel direct(p);
  const auto direct_metrics = direct.metrics();

  auto solved = pepa::solve_source(models::tags_pepa_source(p), "System");
  ASSERT_EQ(solved.model.chain.n_states(), direct.n_states());

  const double pepa_thr = solved.action_throughput("service1") +
                          solved.action_throughput("service2");
  EXPECT_NEAR(pepa_thr, direct_metrics.throughput, 1e-7);

  // Mean queue lengths via population rewards over the queue derivatives.
  double q1 = 0.0, q2 = 0.0;
  for (unsigned i = 1; i <= p.k1; ++i) {
    q1 += i * solved.state_probability([&](const std::vector<pepa::seq_id>& st) {
      return solved.model.seq->name(st[0]) == "Q1_" + std::to_string(i);
    });
  }
  for (unsigned i = 1; i <= p.k2; ++i) {
    q2 += i * solved.state_probability([&](const std::vector<pepa::seq_id>& st) {
      const std::string name = solved.model.seq->name(st[2]);
      return name == "Q2_" + std::to_string(i) || name == "Q2p_" + std::to_string(i);
    });
  }
  EXPECT_NEAR(q1, direct_metrics.mean_q1, 1e-7);
  EXPECT_NEAR(q2, direct_metrics.mean_q2, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(TimeoutRates, TagsPepaAgreement,
                         ::testing::Values(5.0, 20.0, 50.0, 120.0));

TEST(TagsPepa, ModelValidates) {
  models::TagsParams p;
  p.n = 3;
  p.k1 = p.k2 = 3;
  const auto model = pepa::parse_model(models::tags_pepa_source(p));
  const auto report = pepa::check_model(model);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
  const auto derived_report = pepa::check_derived(pepa::derive(model, "System"));
  EXPECT_TRUE(derived_report.ok);
}

TEST(TagsH2Pepa, StateCountAndMetricsMatchDirect) {
  auto p = models::TagsH2Params::from_ratio(5.0, 0.9, 10.0, 0.1, 30.0,
                                            /*n=*/2, /*k1=*/3, /*k2=*/3);
  const models::TagsH2Model direct(p);
  EXPECT_EQ(direct.n_states(), models::TagsH2Model::state_count(p));

  auto solved = pepa::solve_source(models::tags_h2_pepa_source(p), "System");
  EXPECT_EQ(solved.model.chain.n_states(), direct.n_states());

  const auto direct_metrics = direct.metrics();
  const double pepa_thr = solved.action_throughput("service1") +
                          solved.action_throughput("service2");
  EXPECT_NEAR(pepa_thr, direct_metrics.throughput, 1e-7);
  EXPECT_NEAR(solved.action_throughput("timeout"),
              ctmc::throughput(direct.chain(),
                               direct.solve().pi, "timeout") +
                  ctmc::throughput(direct.chain(), direct.solve().pi, "timeout_lost"),
              1e-6);
}

TEST(RandomPepa, MatchesClosedForm) {
  models::RandomAllocParams p{.lambda = 6.0, .mu = 10.0, .k = 5, .p1 = 0.5};
  auto solved = pepa::solve_source(models::random_pepa_source(p), "System");
  const auto analytic = models::random_alloc_exp(p);
  const double thr = solved.action_throughput("service1") +
                     solved.action_throughput("service2");
  EXPECT_NEAR(thr, analytic.throughput, 1e-8);
  EXPECT_EQ(solved.model.chain.n_states(),
            static_cast<ctmc::index_t>((p.k + 1) * (p.k + 1)));
}

TEST(ShortestQueuePepa, MatchesDirectModel) {
  models::ShortestQueueParams p{.lambda = 8.0, .mu = 10.0, .k = 4};
  auto solved = pepa::solve_source(models::shortest_queue_pepa_source(p), "System");
  const auto direct = models::ShortestQueueModel(p).metrics();
  const double thr = solved.action_throughput("serv1") +
                     solved.action_throughput("serv2");
  EXPECT_NEAR(thr, direct.throughput, 1e-7);
  // Joint reachable states: (q1, q2) pairs (the S component's difference is
  // determined by them).
  EXPECT_EQ(solved.model.chain.n_states(),
            static_cast<ctmc::index_t>((p.k + 1) * (p.k + 1)));
}

// The same Fig 3 chain (K = 10, t = 51) in two state orders. The direct
// builder lists the Erlang timer's phases so that its ticks, the fastest
// transitions, run down the index and Gauss-Seidel sweeps downward; the
// PEPA derivation's order carries most rate mass upward and keeps the
// ascending sweep. Sweep counts are deterministic; an ascending sweep of
// the builder-order chain needs 864. Both chains carry the node-2
// partition, so their solves are two-level: the PEPA-order chain took 128
// sweeps without the coarse steps.
TEST(GaussSeidelSweeps, BuilderOrderFig3ChainSweepsDownward) {
  models::TagsParams p;
  p.t = 51.0;
  const auto r = ctmc::steady_state(models::TagsModel(p).chain().generator());
  EXPECT_EQ(r.method_used, ctmc::SteadyStateMethod::kGaussSeidel);
  EXPECT_TRUE(r.certificate.ok());
  EXPECT_LE(r.iterations, 200);
}

TEST(GaussSeidelSweeps, PepaOrderFig3ChainKeepsItsSweepCount) {
  models::TagsParams p;
  p.t = 51.0;
  const auto solved = pepa::solve_source(models::tags_pepa_source(p), "System");
  EXPECT_EQ(solved.solve_info.method_used, ctmc::SteadyStateMethod::kGaussSeidel);
  EXPECT_TRUE(solved.solve_info.certificate.ok());
  EXPECT_EQ(solved.solve_info.iterations, 80);
}

// Cold sweep counts of two 12831-state H2 chains: the Fig 9 builder chain
// at K = 10, t = 50 and the Fig 5 PEPA source at the fig09 point near its
// optimum (t = 12). How a sweep is computed must not change how many it
// takes. Both solves are two-level over the 91 node-2 states; without the
// coarse steps they took 1024 and 7040 sweeps.
TEST(GaussSeidelSweeps, H2BuilderChainKeepsItsSweepCount) {
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto r =
      ctmc::steady_state(models::TagsH2Model(models::TagsH2Params{}).chain().generator(), opts);
  EXPECT_TRUE(r.certificate.ok());
  EXPECT_EQ(r.iterations, 112);
}

TEST(GaussSeidelSweeps, PepaFig5ChainKeepsItsSweepCount) {
  const auto p = models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, 12.0);
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto solved = pepa::solve_source(models::tags_h2_pepa_source(p), "System", {}, opts);
  EXPECT_EQ(solved.model.chain.n_states(), 12831);
  EXPECT_TRUE(solved.solve_info.certificate.ok());
  EXPECT_EQ(solved.solve_info.iterations, 128);
}

// population_reward against a recount through local_name: for every
// printable local derivative of the paper's Fig 3 and Fig 5 models, the
// per-state number of components in it, bit for bit.
void expect_population_rewards_match_recount(const std::string& source) {
  const auto dm = pepa::derive(pepa::parse_model(source), "System");
  std::map<std::string, linalg::Vec> recount;
  for (std::size_t s = 0; s < dm.states.size(); ++s) {
    for (std::size_t leaf = 0; leaf < dm.states[s].size(); ++leaf) {
      linalg::Vec& v =
          recount.try_emplace(dm.local_name(s, leaf), dm.states.size(), 0.0).first->second;
      v[s] += 1.0;
    }
  }
  ASSERT_GT(recount.size(), dm.n_components);
  for (const auto& [name, expected] : recount) {
    EXPECT_EQ(dm.population_reward(name), expected) << name;
  }
  EXPECT_EQ(dm.population_reward("NoSuchDerivative"), linalg::Vec(dm.states.size(), 0.0));
}

TEST(TagsPepa, PopulationRewardsMatchARecountThroughLocalNames) {
  expect_population_rewards_match_recount(models::tags_pepa_source(models::TagsParams{}));
  expect_population_rewards_match_recount(
      models::tags_h2_pepa_source(models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, 12.0)));
}

TEST(TagsPepa, EmptyTimerStatesArePinned) {
  // With an empty queue 1 the timer must be frozen at n: no reachable state
  // pairs (Q1_0, T1_j) with j != n.
  models::TagsParams p;
  p.n = 3;
  p.k1 = p.k2 = 2;
  const auto dm = pepa::derive(pepa::parse_model(models::tags_pepa_source(p)), "System");
  for (std::size_t s = 0; s < dm.states.size(); ++s) {
    if (dm.local_name(s, 0) == "Q1_0") {
      EXPECT_EQ(dm.local_name(s, 1), "T1_" + std::to_string(p.n));
    }
    if (dm.local_name(s, 2) == "Q2_0") {
      EXPECT_EQ(dm.local_name(s, 3), "T2_" + std::to_string(p.n));
    }
  }
}

}  // namespace
