// Linear Gauss-Seidel tests: diagonally dominant random systems solve
// to tolerance, the sweep budget holds, and a zero diagonal fails
// explicitly instead of poisoning the iterate.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "linalg/solver.hpp"

namespace {

using namespace tags::linalg;

CsrMatrix diag_dominant(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  CooMatrix coo(static_cast<index_t>(n), static_cast<index_t>(n));
  Vec row_abs(n, 0.0);
  for (std::size_t e = 0; e < 4 * n; ++e) {
    const auto i = pick(gen);
    const auto j = pick(gen);
    if (i == j) continue;
    const double v = dist(gen);
    coo.add(static_cast<index_t>(i), static_cast<index_t>(j), v);
    row_abs[i] += std::abs(v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(static_cast<index_t>(i), static_cast<index_t>(i), row_abs[i] + 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

class SolverTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolverTest, SolvesDiagonallyDominantSystem) {
  const std::size_t n = GetParam();
  const CsrMatrix a = diag_dominant(n, 17 + static_cast<unsigned>(n));
  std::mt19937 gen(99);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  Vec x_true(n);
  for (auto& v : x_true) v = dist(gen);
  Vec b(n);
  a.multiply(x_true, b);

  Vec x(n, 0.0);
  SolveOptions opts;
  opts.tol = 1e-10;
  const SolveResult r = gauss_seidel(a, b, x, opts);
  EXPECT_TRUE(r.converged) << "n=" << n << " residual=" << r.residual;
  EXPECT_NEAR(max_abs_diff(x, x_true), 0.0, 1e-7);
}

TEST_P(SolverTest, StartingAtSolutionStaysThere) {
  const std::size_t n = GetParam();
  const CsrMatrix a = diag_dominant(n, 40 + static_cast<unsigned>(n));
  Vec x_true(n, 1.0);
  Vec b(n);
  a.multiply(x_true, b);
  Vec x = x_true;
  SolveOptions opts;
  opts.tol = 1e-10;
  const SolveResult r = gauss_seidel(a, b, x, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(max_abs_diff(x, x_true), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverTest, ::testing::Values(1, 2, 8, 32, 128, 512),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(SolverEdge, IterationBudgetRespected) {
  const CsrMatrix a = diag_dominant(256, 6);
  Vec b(256, 1.0);
  Vec x(256, 0.0);
  SolveOptions opts;
  opts.tol = 1e-30;  // unreachable
  opts.max_iter = 5;
  const SolveResult r = gauss_seidel(a, b, x, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, 6);
}

// Regression: a structural zero on the diagonal used to make the sweep
// divide by zero and return a vector of inf/NaN with diverged unset.
TEST(SolverEdge, GaussSeidelBailsOnStructuralZeroDiagonal) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 1.0);  // row 0 has no diagonal entry at all
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 2.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Vec b{1.0, 1.0};
  Vec x{0.5, 0.5};
  const Vec x_before = x;
  const SolveResult r = gauss_seidel(a, b, x, {});
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(x, x_before);  // bailed before poisoning the iterate
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

// An explicit zero stored on the diagonal must trip the same guard as a
// missing entry.
TEST(SolverEdge, GaussSeidelBailsOnExplicitZeroDiagonal) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 0.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 2.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Vec b{1.0, 1.0};
  Vec x(2, 0.0);
  const SolveResult r = gauss_seidel(a, b, x, {});
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.diverged);
}

}  // namespace
