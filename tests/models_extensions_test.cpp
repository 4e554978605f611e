// Tests for the extension models: phase-type-service TAGS (must subsume
// the exponential and H2 models exactly), round-robin allocation, and
// first-passage analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ctmc/first_passage.hpp"
#include "ctmc/reachability.hpp"
#include "models/mm1k.hpp"
#include "models/random_alloc.hpp"
#include "models/round_robin.hpp"
#include "models/shortest_queue.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "models/tags_ph.hpp"
#include "phasetype/fitting.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tags;

// --- TagsPhModel -------------------------------------------------------------

TEST(TagsPh, ExponentialServiceReproducesTagsModelExactly) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = 40.0;
  p.n = 3;
  p.k1 = p.k2 = 4;
  const auto exp_metrics = models::TagsModel(p).metrics();

  models::TagsPhParams pp;
  pp.lambda = p.lambda;
  pp.service = ph::exponential(p.mu);
  pp.t = p.t;
  pp.n = p.n;
  pp.k1 = pp.k2 = 4;
  const models::TagsPhModel phm(pp);
  EXPECT_EQ(phm.n_states(), models::TagsModel::state_count(p));
  const auto ph_metrics = phm.metrics();

  EXPECT_NEAR(ph_metrics.mean_q1, exp_metrics.mean_q1, 1e-9);
  EXPECT_NEAR(ph_metrics.mean_q2, exp_metrics.mean_q2, 1e-9);
  EXPECT_NEAR(ph_metrics.throughput, exp_metrics.throughput, 1e-9);
  EXPECT_NEAR(ph_metrics.loss_rate, exp_metrics.loss_rate, 1e-9);
}

TEST(TagsPh, H2ServiceReproducesTagsH2ModelExactly) {
  auto hp = models::TagsH2Params::from_ratio(8.0, 0.95, 20.0, 0.1, 25.0, 2, 3, 3);
  const auto h2_metrics = models::TagsH2Model(hp).metrics();

  models::TagsPhParams pp;
  pp.lambda = hp.lambda;
  pp.service = ph::hyperexp2(hp.alpha, hp.mu1, hp.mu2);
  pp.t = hp.t;
  pp.n = hp.n;
  pp.k1 = pp.k2 = 3;
  const models::TagsPhModel phm(pp);
  EXPECT_EQ(phm.n_states(), models::TagsH2Model::state_count(hp));
  // The residual distribution must equal the paper's alpha'.
  EXPECT_NEAR(phm.residual_alpha()[0], hp.alpha_prime(), 1e-12);

  const auto ph_metrics = phm.metrics();
  EXPECT_NEAR(ph_metrics.mean_q1, h2_metrics.mean_q1, 1e-9);
  EXPECT_NEAR(ph_metrics.mean_q2, h2_metrics.mean_q2, 1e-9);
  EXPECT_NEAR(ph_metrics.throughput, h2_metrics.throughput, 1e-9);
}

TEST(TagsPh, EncodeDecodeBijection) {
  models::TagsPhParams pp;
  pp.service = ph::erlang(3, 30.0);
  pp.n = 2;
  pp.k1 = 3;
  pp.k2 = 2;
  const models::TagsPhModel m(pp);
  EXPECT_EQ(m.n_states(), models::TagsPhModel::state_count(pp));
  for (ctmc::index_t i = 0; i < m.n_states(); ++i) {
    const auto s = m.decode(i);
    EXPECT_EQ(m.encode(s), i);
  }
}

TEST(TagsPh, ErlangServiceIsWellFormed) {
  models::TagsPhParams pp;
  pp.lambda = 5.0;
  pp.service = ph::erlang(2, 20.0);  // mean 0.1, scv 0.5
  pp.t = 50.0;
  pp.n = 3;
  pp.k1 = pp.k2 = 4;
  const models::TagsPhModel m(pp);
  EXPECT_TRUE(m.chain().is_valid_generator());
  EXPECT_TRUE(ctmc::is_irreducible(m.chain()));
  const auto metrics = m.metrics();
  EXPECT_NEAR(metrics.flow_balance_gap(pp.lambda), 0.0, 1e-6);
}

class TagsPhScvTest : public ::testing::TestWithParam<double> {};

TEST_P(TagsPhScvTest, FlowBalanceAcrossVariability) {
  const double scv = GetParam();
  models::TagsPhParams pp;
  pp.lambda = 6.0;
  pp.service = ph::fit_two_moment(0.1, scv);
  pp.t = 40.0;
  pp.n = 2;
  pp.k1 = pp.k2 = 3;
  const models::TagsPhModel m(pp);
  const auto metrics = m.metrics();
  EXPECT_NEAR(metrics.flow_balance_gap(pp.lambda), 0.0, 1e-6) << "scv=" << scv;
  EXPECT_GT(metrics.throughput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Scvs, TagsPhScvTest,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 8.0, 32.0));

TEST(TagsPh, HigherVarianceFavoursTags) {
  // The paper's central message, generalised: the TAGS-vs-SQ gap moves in
  // TAGS's favour as service variability rises (mean fixed).
  const auto gap_at = [](double scv) {
    models::TagsPhParams pp;
    pp.lambda = 11.0;
    pp.service = ph::fit_two_moment(0.1, scv);
    pp.t = 16.0;
    pp.n = 4;
    pp.k1 = pp.k2 = 6;
    const auto tags_m = models::TagsPhModel(pp).metrics();
    // SQ with the same two-moment service: exponential for scv=1, H2 else.
    models::Metrics sq;
    if (scv <= 1.0) {
      sq = models::ShortestQueueModel({.lambda = 11.0, .mu = 10.0, .k = 6}).metrics();
    } else {
      const auto& h2 = pp.service;
      sq = models::ShortestQueueH2Model({.lambda = 11.0,
                                         .alpha = h2.alpha()[0],
                                         .mu1 = -h2.T()(0, 0),
                                         .mu2 = -h2.T()(1, 1),
                                         .k = 6})
               .metrics();
    }
    return tags_m.response_time - sq.response_time;  // < 0 when TAGS wins
  };
  const double gap_low = gap_at(1.0);
  const double gap_high = gap_at(32.0);
  EXPECT_GT(gap_low, 0.0);   // exponential: SQ wins
  EXPECT_LT(gap_high, 0.0);  // very high variance: TAGS wins
}

// --- Round robin --------------------------------------------------------------

TEST(RoundRobin, EncodeDecodeAndShape) {
  const models::RoundRobinModel rr({.lambda = 5.0, .mu = 10.0, .k = 4});
  EXPECT_EQ(rr.chain().n_states(), 2 * 5 * 5);
  for (ctmc::index_t i = 0; i < rr.chain().n_states(); ++i) {
    const auto s = rr.decode(i);
    EXPECT_EQ(rr.encode(s), i);
  }
  EXPECT_TRUE(ctmc::is_irreducible(rr.chain()));
}

TEST(RoundRobin, SymmetricQueues) {
  const auto m = models::RoundRobinModel({.lambda = 8.0, .mu = 10.0, .k = 6}).metrics();
  EXPECT_NEAR(m.mean_q1, m.mean_q2, 1e-9);
  EXPECT_NEAR(m.flow_balance_gap(8.0), 0.0, 1e-7);
}

TEST(RoundRobin, BetweenRandomAndShortestQueue) {
  // Deterministic alternation smooths each queue's arrival stream (Erlang-2
  // interarrivals): better than random splitting, worse than JSQ.
  for (double lambda : {6.0, 12.0, 16.0}) {
    const auto rr =
        models::RoundRobinModel({.lambda = lambda, .mu = 10.0, .k = 8}).metrics();
    const auto rnd = models::random_alloc_exp({.lambda = lambda, .mu = 10.0, .k = 8});
    const auto sq =
        models::ShortestQueueModel({.lambda = lambda, .mu = 10.0, .k = 8}).metrics();
    EXPECT_LT(rr.mean_total, rnd.mean_total) << "lambda=" << lambda;
    EXPECT_GT(rr.mean_total, sq.mean_total) << "lambda=" << lambda;
  }
}

TEST(RoundRobin, AgreesWithSimulator) {
  const auto model = models::RoundRobinModel({.lambda = 9.0, .mu = 10.0, .k = 10});
  const auto m = model.metrics();
  sim::DispatchSimParams sp;
  sp.lambda = 9.0;
  sp.service = sim::Exponential{10.0};
  sp.n_queues = 2;
  sp.buffer = 10;
  sp.policy = sim::DispatchPolicy::kRoundRobin;
  sp.horizon = 6e4;
  sp.seed = 13;
  const auto sim_r = sim::simulate_dispatch(sp);
  EXPECT_NEAR(sim_r.mean_total_queue, m.mean_total, 0.06 * m.mean_total + 0.02);
  EXPECT_NEAR(sim_r.throughput, m.throughput, 0.02 * m.throughput);
}

// --- First passage -------------------------------------------------------------

TEST(FirstPassage, TwoStateClosedForm) {
  // 0 -> 1 at rate a: expected time to hit state 1 from 0 is 1/a.
  ctmc::CtmcBuilder b;
  b.add(0, 1, 4.0, "go");
  b.add(1, 0, 1.0, "back");
  const auto chain = b.build();
  const auto r =
      ctmc::mean_first_passage(chain, [](ctmc::index_t i) { return i == 1; });
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.hitting_time[0], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(r.hitting_time[1], 0.0);
}

TEST(FirstPassage, BirthDeathHittingTime) {
  // M/M/1/K: expected time from empty to full has a classical closed form;
  // check against a directly computed recursion.
  const models::Mm1kParams p{4.0, 5.0, 6};
  const auto chain = models::mm1k_ctmc(p);
  const auto r = ctmc::mean_first_passage(
      chain, [&](ctmc::index_t i) { return i == static_cast<ctmc::index_t>(p.k); });
  ASSERT_TRUE(r.converged);
  // Recursion: T_i = time from i to i+1: T_0 = 1/lambda;
  // T_i = 1/lambda + (mu/lambda) T_{i-1}. Hitting time 0->K = sum T_i.
  double expect = 0.0, t_i = 0.0;
  for (unsigned i = 0; i < p.k; ++i) {
    t_i = 1.0 / p.lambda + (i > 0 ? (p.mu / p.lambda) * t_i : 0.0);
    expect += t_i;
  }
  EXPECT_NEAR(r.hitting_time[0], expect, 1e-8 * expect);
}

TEST(FirstPassage, EventTimeForPoissonLoss) {
  // Single state with a self-loop "loss" at rate r: time to first event is
  // exactly Exp(r)'s mean.
  ctmc::CtmcBuilder b;
  b.add(0, 0, 2.5, "loss");
  b.add(0, 1, 1.0, "go");
  b.add(1, 0, 1.0, "back");
  const auto chain = b.build();
  const auto r = ctmc::mean_time_to_event(chain, "loss");
  ASSERT_TRUE(r.converged);
  // From state 0: loss competes with go (then no loss possible until back).
  // h0 = 1/(2.5+1) + (1/3.5) h1; h1 = 1 + h0  => h0 = (1/3.5)(1 + h1)...
  // Solve: h0 = (1 + h1)/3.5, h1 = 1 + h0 -> h0 = (2 + h0)/3.5 -> h0 = 0.8.
  EXPECT_NEAR(r.hitting_time[0], 0.8, 1e-10);
  EXPECT_NEAR(r.hitting_time[1], 1.8, 1e-10);
}

TEST(FirstPassage, UnknownEventDiverges) {
  ctmc::CtmcBuilder b;
  b.add(0, 1, 1.0, "a");
  b.add(1, 0, 1.0, "b");
  const auto chain = b.build();
  EXPECT_FALSE(ctmc::mean_time_to_event(chain, "never").converged);
}

TEST(FirstPassage, TagsTimeToFirstLossShrinksWithLoad) {
  double prev = std::numeric_limits<double>::infinity();
  for (double lambda : {6.0, 10.0, 14.0}) {
    models::TagsParams p;
    p.lambda = lambda;
    p.mu = 10.0;
    p.t = 40.0;
    p.n = 2;
    p.k1 = p.k2 = 3;
    const models::TagsModel m(p);
    // Time to the first arrival loss  (losses at node 2 behave analogously).
    // First-passage analysis needs the materialised labelled chain.
    const auto r1 = ctmc::mean_time_to_event(m.to_ctmc(), "loss1");
    ASSERT_TRUE(r1.converged);
    const ctmc::index_t empty = m.encode({0, p.n, 0, p.n});
    const double t_loss = r1.hitting_time[static_cast<std::size_t>(empty)];
    EXPECT_LT(t_loss, prev) << "lambda=" << lambda;
    prev = t_loss;
  }
}

// --- Simulator fairness buckets -------------------------------------------------

TEST(SimFairness, BucketsPartitionCompletions) {
  sim::TagsSimParams p;
  p.lambda = 4.0;
  p.service = sim::HyperExp2{0.9, 20.0, 0.5};
  p.timeouts = {sim::Deterministic{0.2}};
  p.buffers = {10, 10};
  p.horizon = 2e4;
  p.seed = 5;
  p.slowdown_buckets = {0.05, 0.2, 1.0};
  const auto r = sim::simulate_tags(p);
  ASSERT_EQ(r.bucket_mean_slowdown.size(), 4u);
  std::uint64_t total = 0;
  for (auto c : r.bucket_count) total += c;
  EXPECT_EQ(total, r.completed);
  for (std::size_t i = 0; i < r.bucket_count.size(); ++i) {
    if (r.bucket_count[i] > 0) {
      EXPECT_GE(r.bucket_mean_slowdown[i], 1.0);
    }
  }
}

TEST(SimFairness, TagsShieldsShortJobs) {
  // Under a heavy-tailed workload, the slowdown of the *smallest* jobs
  // should be lower under TAGS than under random dispatch.
  const sim::BoundedPareto workload{0.05, 50.0, 1.1};
  const double mean_demand = sim::mean(sim::Distribution{workload});
  const std::vector<double> buckets{2.0 * mean_demand};

  sim::TagsSimParams tp;
  tp.lambda = 0.8 / mean_demand;
  tp.service = workload;
  tp.timeouts = {sim::Deterministic{4.0 * mean_demand}};
  tp.buffers = {20, 20};
  tp.horizon = 1.5e5;
  tp.seed = 9;
  tp.slowdown_buckets = buckets;
  const auto tags_r = sim::simulate_tags(tp);

  sim::DispatchSimParams dp;
  dp.lambda = tp.lambda;
  dp.service = workload;
  dp.n_queues = 2;
  dp.buffer = 20;
  dp.policy = sim::DispatchPolicy::kRandom;
  dp.horizon = 1.5e5;
  dp.seed = 9;
  dp.slowdown_buckets = buckets;
  const auto rnd_r = sim::simulate_dispatch(dp);

  ASSERT_GT(tags_r.bucket_count[0], 100u);
  ASSERT_GT(rnd_r.bucket_count[0], 100u);
  EXPECT_LT(tags_r.bucket_mean_slowdown[0], rnd_r.bucket_mean_slowdown[0]);
}

}  // namespace
