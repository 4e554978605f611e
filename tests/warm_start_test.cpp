// Warm starts along a parameter line: from the third point on a t-chain, a
// solve starts from the quadratic (or, with two points, linear)
// extrapolation of the points before it, unless that guess balances the
// new generator worse than the last pi does. These cases pin that the
// prediction is used where it helps, refused where it does not, confined to
// one line, deterministic per shard, and invisible in the published optima.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "approx/optimizer.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "ctmc/steady_state.hpp"
#include "models/tags.hpp"
#include "models/warm_t_chain.hpp"

namespace {

using namespace tags;

models::TagsParams fig06_chain() {
  return core::Fig6Scenario{}.tags_at(10.0);  // lambda 5, n 6, K 10: 5751 states
}

// The golden tests' bound for the default chain against a reference solve.
double chain_tol(double reference) { return 1e-6 * std::abs(reference) + 1e-10; }

void expect_close(const models::Metrics& got, const models::Metrics& want, double t) {
  EXPECT_NEAR(got.mean_q1, want.mean_q1, chain_tol(want.mean_q1)) << "t " << t;
  EXPECT_NEAR(got.mean_q2, want.mean_q2, chain_tol(want.mean_q2)) << "t " << t;
  EXPECT_NEAR(got.throughput, want.throughput, chain_tol(want.throughput)) << "t " << t;
  EXPECT_NEAR(got.response_time, want.response_time, chain_tol(want.response_time))
      << "t " << t;
}

TEST(WarmStartPrediction, Fig06ShardPredictsFromItsThirdPoint) {
  const models::TagsParams base = fig06_chain();
  const std::vector<double> ts{10, 15, 20, 25, 30, 35, 40, 45};

  ctmc::WarmStartState warm;
  int predicted_sweeps = 0;
  models::warm_t_chain<models::TagsModel>(
      base, ts, 0, ts.size(), warm,
      [&](std::size_t i, const ctmc::SteadyStateResult& r, models::TagsModel& m) {
        // Every solve from the third point on started from the prediction.
        EXPECT_EQ(warm.predicted, i < 2 ? 0u : i - 1) << "t " << ts[i];
        EXPECT_TRUE(r.converged && r.certificate.ok()) << "t " << ts[i];
        predicted_sweeps += r.iterations;
        models::TagsParams p = base;
        p.t = ts[i];
        expect_close(m.metrics_from(r.pi), models::TagsModel(p).metrics(), ts[i]);
      });
  EXPECT_EQ(warm.predicted, ts.size() - 2);
  EXPECT_EQ(warm.hits, ts.size() - 1);

  // The same chain started from the last pi alone (no coordinate).
  ctmc::WarmStartState last_pi;
  int last_pi_sweeps = 0;
  models::TagsModel m(base);
  for (const double t : ts) {
    models::TagsParams p = base;
    p.t = t;
    m.rebind(p);
    last_pi.reconcile(m.n_states());
    const auto r = m.solve(last_pi.opts);
    last_pi.accept(r);
    last_pi_sweeps += r.iterations;
  }
  EXPECT_EQ(last_pi.predicted, 0u);
  EXPECT_LT(predicted_sweeps, last_pi_sweeps);
}

TEST(WarmStartPrediction, OvershootFallsBackToTheLastPi) {
  // Three close points, then a jump far past them: the quadratic through
  // t = 10, 11, 12 evaluated at t = 150 is nowhere near a distribution, so
  // the guard keeps the last pi and the solve costs exactly what a start
  // from that pi costs.
  models::TagsParams p = fig06_chain();
  models::TagsModel m(p);
  ctmc::WarmStartState warm;
  ctmc::SteadyStateResult last;
  for (const double t : {10.0, 11.0, 12.0}) {
    p.t = t;
    m.rebind(p);
    warm.reconcile(m.chain().generator(), t);
    last = m.solve(warm.opts);
    warm.accept(last);
  }
  ASSERT_EQ(warm.predicted, 1u);  // t = 12, from the line through 10 and 11

  p.t = 150.0;
  m.rebind(p);
  warm.reconcile(m.chain().generator(), p.t);
  EXPECT_EQ(warm.predicted, 1u);
  const auto guarded = m.solve(warm.opts);

  ctmc::SteadyStateOptions from_last;
  from_last.initial_guess = last.pi;
  const auto reference = m.solve(from_last);
  EXPECT_EQ(guarded.iterations, reference.iterations);
  EXPECT_EQ(guarded.pi, reference.pi);
}

TEST(WarmStartPrediction, SlotRequestThatChangesLambdaDoesNotPredict) {
  const auto at = [](double lambda, double t) {
    core::ScenarioRequest req = core::request_for(fig06_chain());
    req.lambda = lambda;
    req.t = t;
    return req;
  };
  core::ScenarioSlot same;
  core::ScenarioSlot moved;
  for (const double t : {20.0, 21.0, 22.0}) {
    (void)same.evaluate(at(5.0, t));
    (void)moved.evaluate(at(5.0, t));
  }
  ASSERT_EQ(same.warm().predicted, 1u);  // t = 22, from the line through 20 and 21
  ASSERT_EQ(moved.warm().predicted, 1u);

  // On the same line the next point predicts; a changed lambda starts a new
  // line, which needs two points of its own before it predicts again.
  (void)same.evaluate(at(5.0, 23.0));
  EXPECT_EQ(same.warm().predicted, 2u);
  const auto first = moved.evaluate(at(6.0, 23.0));
  EXPECT_EQ(moved.warm().predicted, 1u);
  EXPECT_EQ(moved.warm().hits, 3u);  // still warm, from the last pi
  EXPECT_TRUE(first.solve.certificate.ok());
  (void)moved.evaluate(at(6.0, 24.0));
  EXPECT_EQ(moved.warm().predicted, 1u);
  (void)moved.evaluate(at(6.0, 25.0));
  EXPECT_EQ(moved.warm().predicted, 2u);
}

TEST(WarmStartPrediction, ShardOfEightBitIdenticalAcrossThreadCounts) {
  const models::TagsParams base = fig06_chain();
  const auto ts = core::linspace(10.0, 125.0, 24);  // three shards of eight
  core::SweepStats serial_stats;
  const auto serial =
      core::tags_t_sweep(base, ts, {.threads = 1, .shard_size = 8}, &serial_stats);
  ASSERT_EQ(serial_stats.shards, 3u);
  EXPECT_GT(serial_stats.warm.predicted, 0u);
  EXPECT_EQ(serial_stats.warm.uncertified, 0u);
  for (const unsigned threads : {2u, 8u}) {
    core::SweepStats stats;
    const auto parallel =
        core::tags_t_sweep(base, ts, {.threads = threads, .shard_size = 8}, &stats);
    ASSERT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                          serial.size() * sizeof(models::Metrics)),
              0)
        << threads << " threads";
    EXPECT_EQ(stats.warm.hits, serial_stats.warm.hits);
    EXPECT_EQ(stats.warm.misses, serial_stats.warm.misses);
    EXPECT_EQ(stats.warm.predicted, serial_stats.warm.predicted);
  }
}

TEST(WarmStartPrediction, IntegerScansKeepTheFig08Optima) {
  // bench/fig08's scans: n = 6 over t in [30, 75], n = 5 over [25, 70].
  const std::vector<std::pair<double, std::pair<double, double>>> optima{
      {5.0, {58, 51}}, {7.0, {56, 48}}, {9.0, {54, 46}}, {11.0, {50, 42}}};
  for (const auto& [lambda, t_opt] : optima) {
    models::TagsParams p = core::Fig8Scenario{}.tags_at(lambda, 50.0);
    EXPECT_EQ(approx::optimise_tags_t_integer(p, approx::Objective::kMinQueueLength, 30, 75)
                  .t,
              t_opt.first)
        << "n 6, lambda " << lambda;
    p.n = 5;
    EXPECT_EQ(approx::optimise_tags_t_integer(p, approx::Objective::kMinQueueLength, 25, 70)
                  .t,
              t_opt.second)
        << "n 5, lambda " << lambda;
  }
}

}  // namespace
