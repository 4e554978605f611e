// Fox-Glynn Poisson weights: exact-pmf agreement at small q, unit mass up
// to q = 1e5 (the regime where the naive exp(-q) recurrence underflows to
// an all-zero weight vector), and window sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ctmc/fox_glynn.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;
using ctmc::FoxGlynnWeights;
using ctmc::fox_glynn;

/// Direct Poisson pmf over [0, k_max] via the forward recurrence in long
/// double — exact enough to serve as ground truth for q <= 30.
std::vector<double> direct_pmf(double q, std::size_t k_max) {
  std::vector<double> pmf(k_max + 1);
  long double p = std::exp(static_cast<long double>(-q));
  pmf[0] = static_cast<double>(p);
  for (std::size_t k = 1; k <= k_max; ++k) {
    p *= static_cast<long double>(q) / static_cast<long double>(k);
    pmf[k] = static_cast<double>(p);
  }
  return pmf;
}

class FoxGlynnSmallQ : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnSmallQ, MatchesDirectPmf) {
  const double q = GetParam();
  const FoxGlynnWeights fg = fox_glynn(q, 1e-13);
  ASSERT_TRUE(fg.ok) << "q=" << q;
  const auto pmf = direct_pmf(q, fg.right + 8);
  for (std::size_t k = 0; k <= fg.right; ++k) {
    EXPECT_NEAR(fg.at(k), pmf[k], 1e-12) << "q=" << q << " k=" << k;
  }
  // The truncated tails carry no more mass than the requested eps allows.
  double outside = 0.0;
  for (std::size_t k = 0; k < fg.left; ++k) outside += pmf[k];
  for (std::size_t k = fg.right + 1; k < pmf.size(); ++k) outside += pmf[k];
  EXPECT_LE(outside, 1e-11) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(SmallQ, FoxGlynnSmallQ,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0));

class FoxGlynnMass : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnMass, WeightsSumToOne) {
  const double q = GetParam();
  const FoxGlynnWeights fg = fox_glynn(q, 1e-13);
  ASSERT_TRUE(fg.ok) << "q=" << q;
  // Raw (pre-normalization) mass certifies the computation itself.
  EXPECT_NEAR(fg.total_weight, 1.0, 1e-9) << "q=" << q;
  // Normalized weights sum to 1 within the truncation budget.
  const double sum = linalg::sum_compensated(fg.weights);
  EXPECT_NEAR(sum, 1.0, 1e-13) << "q=" << q;
  for (double w : fg.weights) {
    EXPECT_TRUE(std::isfinite(w) && w >= 0.0);
  }
}

// 745 is where exp(-q) itself underflows to zero in double precision; the
// naive recurrence returns an all-zero vector from there on.
INSTANTIATE_TEST_SUITE_P(QSweep, FoxGlynnMass,
                         ::testing::Values(1.0, 100.0, 744.0, 745.0, 746.0, 1.0e3,
                                           1.0e4, 1.0e5));

TEST(FoxGlynn, ZeroRateIsDegenerate) {
  const FoxGlynnWeights fg = fox_glynn(0.0, 1e-13);
  ASSERT_TRUE(fg.ok);
  EXPECT_EQ(fg.left, 0u);
  EXPECT_EQ(fg.right, 0u);
  EXPECT_DOUBLE_EQ(fg.at(0), 1.0);
  EXPECT_DOUBLE_EQ(fg.at(5), 0.0);
}

TEST(FoxGlynn, WindowBracketsTheMode) {
  for (const double q : {3.0, 50.0, 1e3, 1e5}) {
    const FoxGlynnWeights fg = fox_glynn(q, 1e-13);
    ASSERT_TRUE(fg.ok) << "q=" << q;
    const std::size_t mode = static_cast<std::size_t>(q);
    EXPECT_LE(fg.left, mode) << "q=" << q;
    EXPECT_GE(fg.right, mode) << "q=" << q;
    // The window stays O(sqrt(q))-sized around the mode, not O(q).
    EXPECT_LE(static_cast<double>(fg.right - fg.left),
              60.0 * (std::sqrt(q) + 1.0) + 60.0)
        << "q=" << q;
  }
}

TEST(FoxGlynn, AtIsZeroOutsideWindow) {
  const FoxGlynnWeights fg = fox_glynn(1e4, 1e-13);
  ASSERT_TRUE(fg.ok);
  ASSERT_GT(fg.left, 0u);
  EXPECT_DOUBLE_EQ(fg.at(0), 0.0);
  EXPECT_DOUBLE_EQ(fg.at(fg.left - 1), 0.0);
  EXPECT_DOUBLE_EQ(fg.at(fg.right + 1), 0.0);
  EXPECT_GT(fg.at(static_cast<std::size_t>(1e4)), 0.0);
}

TEST(FoxGlynn, CallsAreCounted) {
  obs::Counter calls("numerics.fox_glynn.calls");
  const std::uint64_t before = calls.value();
  (void)fox_glynn(12.0, 1e-13);
  EXPECT_EQ(calls.value(), before + 1);
}

}  // namespace
