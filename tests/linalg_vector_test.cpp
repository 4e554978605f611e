// Unit and property tests for the dense vector kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/vector_ops.hpp"

namespace {

using namespace tags::linalg;

TEST(VectorOps, DotBasic) {
  const Vec x{1.0, 2.0, 3.0};
  const Vec y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 + 18.0);
}

TEST(VectorOps, DotEmptyIsZero) {
  const Vec x, y;
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
}

TEST(VectorOps, AxpyAccumulates) {
  const Vec x{1.0, 2.0};
  Vec y{10.0, 20.0};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(VectorOps, ScaleInPlace) {
  Vec x{1.0, -2.0, 4.0};
  scale(-0.5, x);
  EXPECT_DOUBLE_EQ(x[0], -0.5);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[2], -2.0);
}

TEST(VectorOps, Norms) {
  const Vec x{3.0, -4.0};
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
  EXPECT_DOUBLE_EQ(nrm_inf(x), 4.0);
  EXPECT_DOUBLE_EQ(nrm1(x), 7.0);
  EXPECT_DOUBLE_EQ(sum(x), -1.0);
}

TEST(VectorOps, Nrm2AvoidsOverflow) {
  const Vec x{1e200, 1e200};
  EXPECT_NEAR(nrm2(x) / 1e200, std::sqrt(2.0), 1e-12);
}

TEST(VectorOps, NormalizeL1) {
  Vec x{1.0, 3.0};
  const double s = normalize_l1(x);
  EXPECT_DOUBLE_EQ(s, 4.0);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_DOUBLE_EQ(x[1], 0.75);
}

TEST(VectorOps, NormalizeL1ZeroVectorUnchanged) {
  Vec x{0.0, 0.0};
  EXPECT_DOUBLE_EQ(normalize_l1(x), 0.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
}

TEST(VectorOps, MaxAbsDiff) {
  const Vec x{1.0, 5.0}, y{1.5, 4.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(x, y), 1.0);
}

TEST(VectorOps, CopyAndZero) {
  const Vec src{1.0, 2.0, 3.0};
  Vec dst(3, 0.0);
  copy(src, dst);
  EXPECT_EQ(dst, src);
  set_zero(dst);
  EXPECT_DOUBLE_EQ(nrm1(dst), 0.0);
}

class VectorPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VectorPropertyTest, CauchySchwarzAndTriangle) {
  const std::size_t n = GetParam();
  std::mt19937 gen(42 + n);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  Vec x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = dist(gen);
    y[i] = dist(gen);
  }
  EXPECT_LE(std::abs(dot(x, y)), nrm2(x) * nrm2(y) * (1.0 + 1e-12) + 1e-12);
  Vec z = x;
  axpy(1.0, y, z);
  EXPECT_LE(nrm2(z), nrm2(x) + nrm2(y) + 1e-9);
  EXPECT_LE(nrm_inf(x), nrm2(x) + 1e-12);
  EXPECT_LE(nrm2(x), nrm1(x) + 1e-9);
}

TEST_P(VectorPropertyTest, NormalizeMakesUnitSum) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  std::mt19937 gen(7 + n);
  std::uniform_real_distribution<double> dist(0.01, 5.0);
  Vec x(n);
  for (auto& v : x) v = dist(gen);
  normalize_l1(x);
  EXPECT_NEAR(sum(x), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VectorPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 7, 16, 33, 100, 1000, 100000));

}  // namespace
