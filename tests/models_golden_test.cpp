// Golden regression fixtures: metric values for fig06/fig07 (exponential
// TAGS t-sweep) and fig09 (H2 TAGS) sample points. The values are exact
// answers from direct solves: dense LU on the 5751-state exponential
// chains, and a block-tridiagonal direct solve on the 12831-state H2
// chains. Both families re-solve with Gauss-Seidel run to a residual of
// 1e-15, which lands within 1e-12 (scaled) of every exponential value and
// within 4e-11 of every H2 value. Drift there means a model's transition
// structure or measure extraction changed; a separate check holds the
// default solver chain to its accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "models/tags.hpp"
#include "models/tags_h2.hpp"

namespace {

using namespace tags;

struct GoldenPoint {
  double t;
  double mean_q1;
  double mean_q2;
  double throughput;
  double loss_rate;
  double response_time;
};

// TagsParams defaults: lambda=5, mu=10, n=6, K1=K2=10 (fig06/fig07).
const GoldenPoint kTagsGolden[] = {
    {30.0, 0.71219112494086156, 0.24968303161917119, 4.9998402107254512,
     0.00015978927464416312, 0.19238097939543347},
    {51.0, 0.50764544837972403, 0.42715679886238134, 4.9999921572256154,
     7.84277445430773e-06, 0.18696074270660584},
    {100.0, 0.29638521984214106, 0.65185873626427226, 4.9999730880822559,
     2.6911917768918673e-05, 0.18964981198931075},
};

// fig09 parameterisation: lambda=11, alpha=0.99, mu1/mu2=100, E[S]=0.1.
const GoldenPoint kH2Golden[] = {
    {10.0, 1.7883703110062388, 1.1034185703184345, 10.800720466210064,
     0.19927953378993959, 0.26774036883665336},
    {16.0, 1.5176060687441193, 1.3968979138820725, 10.93567267665235,
     0.064327323347659726, 0.26651346184205521},
    {40.0, 1.0921078716100787, 3.1446405394899988, 10.911752267879489,
     0.088247732120466923, 0.38827388187428269},
};

models::TagsModel tags_at(double t) {
  models::TagsParams p;
  p.t = t;
  return models::TagsModel(p);
}

models::TagsH2Model h2_at(double t) {
  return models::TagsH2Model(models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, t));
}

/// Gauss-Seidel run to a residual of 1e-15: the reference for chains too
/// large for dense LU, at a fraction of a dense solve's time.
ctmc::SteadyStateOptions tight_gauss_seidel() {
  ctmc::SteadyStateOptions o;
  o.method = ctmc::SteadyStateMethod::kGaussSeidel;
  o.tol = 1e-15;
  o.max_iter = 5000000;
  return o;
}

/// Every measure within tol(golden) of its golden value.
template <class Tol>
void expect_matches(const models::Metrics& m, const GoldenPoint& g, Tol tol) {
  const auto near = [&](double actual, double golden, const char* what) {
    EXPECT_NEAR(actual, golden, tol(golden)) << what << " at t=" << g.t;
  };
  near(m.mean_q1, g.mean_q1, "mean_q1");
  near(m.mean_q2, g.mean_q2, "mean_q2");
  near(m.throughput, g.throughput, "throughput");
  near(m.loss_rate, g.loss_rate, "loss_rate");
  near(m.response_time, g.response_time, "response_time");
}

// The tight Gauss-Seidel reference comes within 4e-11 (scaled) of the
// exact values.
const auto kDirectTol = [](double golden) { return 1e-9 * std::max(1.0, std::abs(golden)); };

// The default chain stops Gauss-Seidel at ||pi Q||_inf <= 1e-11 * max exit
// rate; the loosest measure is the stiff H2 chains' mean_q2 (4e-7 off).
const auto kDefaultChainTol = [](double golden) { return 1e-6 * std::abs(golden) + 1e-10; };

TEST(GoldenRegression, TagsExponentialTimeoutSweep) {
  for (const GoldenPoint& g : kTagsGolden) {
    expect_matches(tags_at(g.t).metrics(tight_gauss_seidel()), g, kDirectTol);
  }
}

TEST(GoldenRegression, TagsH2TimeoutSweep) {
  for (const GoldenPoint& g : kH2Golden) {
    expect_matches(h2_at(g.t).metrics(tight_gauss_seidel()), g, kDirectTol);
  }
}

TEST(GoldenRegression, DefaultChainWithinSolverAccuracyOfExact) {
  for (const GoldenPoint& g : kTagsGolden) {
    expect_matches(tags_at(g.t).metrics(), g, kDefaultChainTol);
  }
  for (const GoldenPoint& g : kH2Golden) {
    expect_matches(h2_at(g.t).metrics(), g, kDefaultChainTol);
  }
}

TEST(GoldenRegression, RebindReachesSamePointAsFreshBuild) {
  // Sweeping onto a golden point via rebind must land on the same metrics
  // as constructing there directly (the fig07-style sweep path).
  models::TagsParams p;
  p.t = 30.0;
  models::TagsModel m(p);
  p.t = 51.0;
  m.rebind(p);
  const models::Metrics swept = m.metrics();
  const models::Metrics direct = models::TagsModel(p).metrics();
  EXPECT_EQ(swept.mean_q1, direct.mean_q1);
  EXPECT_EQ(swept.mean_q2, direct.mean_q2);
  EXPECT_EQ(swept.throughput, direct.throughput);
  EXPECT_EQ(swept.response_time, direct.response_time);
}

}  // namespace
