// Section 4 approximations: root finders, balance equations, and the
// M/M/1/K decomposition estimate checked against the exact model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "approx/balance.hpp"
#include "approx/mm1k_composition.hpp"
#include "approx/optimizer.hpp"
#include "approx/roots.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;
using namespace tags::approx;

TEST(Roots, BisectFindsSqrt2) {
  const auto r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-10);
}

TEST(Roots, BisectRequiresBracket) {
  const auto r = bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0);
  EXPECT_FALSE(r.converged);
}

TEST(Roots, BracketAndBisectExpands) {
  const auto r = bracket_and_bisect([](double x) { return std::log(x) - 3.0; }, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::exp(3.0), 1e-6);
}

TEST(Roots, GoldenSectionOnParabola) {
  const auto r = golden_section([](double x) { return (x - 3.5) * (x - 3.5); }, 0.0, 10.0);
  EXPECT_NEAR(r.x, 3.5, 1e-6);
}

TEST(Roots, GridThenGoldenEscapesLocalStructure) {
  // Bimodal: global minimum at x ~ 8.
  const auto f = [](double x) {
    return std::min((x - 2.0) * (x - 2.0) + 1.0, (x - 8.0) * (x - 8.0));
  };
  const auto r = grid_then_golden(f, 0.0, 10.0, 40);
  EXPECT_NEAR(r.x, 8.0, 1e-4);
}

TEST(Balance, ExponentialGoldenRatio) {
  // T = mu (sqrt(5)-1)/2: "approximately 6.17" for mu = 10.
  EXPECT_NEAR(balance_timeout_rate_exponential(10.0), 6.180339887, 1e-8);
  EXPECT_NEAR(balance_timeout_rate_exponential(1.0), 0.6180339887, 1e-9);
}

TEST(Balance, ErlangK1MatchesExponential) {
  EXPECT_NEAR(balance_timeout_rate_erlang(10.0, 1),
              balance_timeout_rate_exponential(10.0), 1e-9);
}

TEST(Balance, EffectiveRateIncreasesWithOrderTowardsNine) {
  // Paper: "the total timeout rate will increase, tending to a value of
  // around 9 when mu = 10".
  double prev = 0.0;
  for (unsigned k : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const double t = balance_timeout_rate_erlang(10.0, k);
    const double effective = t / k;
    EXPECT_GT(effective, prev);
    prev = effective;
  }
  EXPECT_NEAR(prev, 8.7, 0.2);  // k = 64 is already close to the limit
}

TEST(Balance, OccupancyClosedFormLimits) {
  // t -> 0: never times out, E[min] = 1/mu. Large t: -> 0.
  EXPECT_NEAR(mean_occupancy_exp_vs_erlang(10.0, 7, 1e-9), 0.1, 1e-6);
  EXPECT_LT(mean_occupancy_exp_vs_erlang(10.0, 7, 1e6), 1e-4);
  // Monotone decreasing in t.
  double prev = 1.0;
  for (double t : {1.0, 5.0, 20.0, 80.0, 300.0}) {
    const double occ = mean_occupancy_exp_vs_erlang(10.0, 7, t);
    EXPECT_LT(occ, prev);
    prev = occ;
  }
}

TEST(Composition, EstimateTracksExactModel) {
  // The decomposition is an approximation; require agreement within 20% on
  // the total queue length over the interesting t range.
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.n = 6;
  p.k1 = p.k2 = 10;
  for (double t : {30.0, 50.0, 70.0, 100.0}) {
    p.t = t;
    const auto est = estimate_tags(p);
    const auto exact = models::TagsModel(p).metrics();
    EXPECT_NEAR(est.metrics.mean_total, exact.mean_total,
                0.2 * exact.mean_total + 0.05)
        << "t=" << t;
    EXPECT_NEAR(est.metrics.throughput, exact.throughput, 0.05 * p.lambda);
  }
}

TEST(Composition, EstimatedOptimumNearExactOptimum) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.n = 6;
  p.k1 = p.k2 = 10;
  const double t_est = estimate_optimal_t_queue_length(p, 5.0, 200.0);
  const auto exact = optimise_tags_t_integer(p, Objective::kMinQueueLength, 20, 90);
  // The estimate should land in the right neighbourhood (the paper's whole
  // point: a cheap way to seed the timeout choice).
  EXPECT_NEAR(t_est, exact.t, 0.5 * exact.t);
  // Using the estimated t must cost little vs the true optimum.
  p.t = t_est;
  const auto at_est = models::TagsModel(p).metrics();
  EXPECT_LT(at_est.mean_total, exact.metrics.mean_total * 1.1);
}

TEST(Optimizer, IntegerScanFindsInteriorOptimum) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.n = 4;
  p.k1 = p.k2 = 6;
  const auto best = optimise_tags_t_integer(p, Objective::kMinQueueLength, 10, 100);
  EXPECT_GT(best.t, 10.0);
  EXPECT_LT(best.t, 100.0);
  // Neighbours must not beat the reported optimum.
  for (double dt : {-1.0, 1.0}) {
    p.t = best.t + dt;
    EXPECT_GE(models::TagsModel(p).metrics().mean_total,
              best.metrics.mean_total - 1e-9);
  }
}

TEST(Optimizer, ObjectivesDiffer) {
  // The paper notes different metrics optimise at different t.
  models::TagsParams p;
  p.lambda = 9.0;
  p.mu = 10.0;
  p.n = 4;
  p.k1 = p.k2 = 5;
  const auto q = optimise_tags_t_integer(p, Objective::kMinQueueLength, 5, 120);
  const auto thr = optimise_tags_t_integer(p, Objective::kMaxThroughput, 5, 120);
  EXPECT_GE(thr.metrics.throughput, q.metrics.throughput - 1e-9);
  EXPECT_LE(q.metrics.mean_total, thr.metrics.mean_total + 1e-9);
}

TEST(Optimizer, DenseLuScanPredictsNothing) {
  // 357 states: kAuto solves by dense LU, which never reads the warm-start
  // guess, so the scan makes no prediction and lands on what cold solves
  // at every t give, bit for bit.
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.n = 3;
  p.k1 = p.k2 = 4;
  obs::Counter predicted("ctmc.steady_state.warm_start.predicted");
  const std::uint64_t before = predicted.value();
  const auto best = optimise_tags_t_integer(p, Objective::kMinQueueLength, 10, 40);
  EXPECT_EQ(predicted.value(), before);
  double best_t = 0.0;
  models::Metrics cold_best;
  for (unsigned t = 10; t <= 40; ++t) {
    p.t = t;
    const models::Metrics m = models::TagsModel(p).metrics();
    if (best_t == 0.0 || m.mean_total < cold_best.mean_total) {
      best_t = t;
      cold_best = m;
    }
  }
  EXPECT_EQ(best.t, best_t);
  EXPECT_EQ(std::memcmp(&best.metrics, &cold_best, sizeof cold_best), 0);
  EXPECT_EQ(best.solves, 31);
}

TEST(Optimizer, ContinuousRefinementConsistent) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.n = 3;
  p.k1 = p.k2 = 4;
  const auto cont = optimise_tags_t(p, Objective::kMinQueueLength, 10.0, 120.0);
  const auto integer = optimise_tags_t_integer(p, Objective::kMinQueueLength, 10, 120);
  EXPECT_NEAR(cont.t, integer.t, 2.0);
  EXPECT_LE(cont.metrics.mean_total, integer.metrics.mean_total + 1e-6);
}

TEST(Optimizer, CoarseScanFindsTheFullScanOptimum) {
  // The fig11/fig12 procedure on the 221-state H2 chain: a stride-6 scan
  // plus a refinement around its winner must land on the full integer
  // scan's optimum, with the same metric bytes, for fewer solves.
  models::TagsH2Params p;
  p.n = 3;
  p.k1 = p.k2 = 2;
  const struct {
    Objective obj;
    double t;
  } cases[] = {{Objective::kMinQueueLength, 5.0},
               {Objective::kMinResponseTime, 7.0},
               {Objective::kMaxThroughput, 28.0}};
  for (const auto& c : cases) {
    const auto full = optimise_tags_h2_t_integer(p, c.obj, 4, 60);
    const auto coarse = optimise_tags_h2_t_coarse(p, c.obj, 4, 60, 6);
    EXPECT_EQ(full.t, c.t);
    EXPECT_EQ(coarse.t, full.t);
    EXPECT_EQ(std::memcmp(&coarse.metrics, &full.metrics, sizeof full.metrics), 0);
    EXPECT_EQ(full.solves, 57);
    EXPECT_LT(coarse.solves, full.solves);
  }
}

}  // namespace
