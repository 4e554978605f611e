// Result certification: certificates must reflect the actual state of a
// solution vector (finiteness, true residual, probability mass), and the
// Hager 1-norm condition estimator must agree with exactly computable
// cases and lower-bound the truth in general.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "linalg/certify.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags::linalg;

CsrMatrix identity_csr(std::size_t n) {
  CooMatrix coo(static_cast<index_t>(n), static_cast<index_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(static_cast<index_t>(i), static_cast<index_t>(i), 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

TEST(Certify, ExactSolutionPasses) {
  const CsrMatrix a = identity_csr(4);
  const Vec x{0.1, 0.2, 0.3, 0.4};
  const Certificate cert = certify_solution(a, x, x, {});
  EXPECT_TRUE(cert.ok()) << cert.failed_check();
  EXPECT_TRUE(cert.finite);
  EXPECT_DOUBLE_EQ(cert.residual, 0.0);
  EXPECT_NEAR(cert.mass_error, 0.0, 1e-15);
}

TEST(Certify, NonFiniteEntriesFail) {
  const CsrMatrix a = identity_csr(3);
  const Vec x{0.5, std::numeric_limits<double>::quiet_NaN(), 0.5};
  const Vec b(3, 0.0);
  const Certificate cert = certify_solution(a, x, b, {});
  EXPECT_FALSE(cert.ok());
  EXPECT_FALSE(cert.finite);
  EXPECT_STREQ(cert.failed_check(), "finite");
}

TEST(Certify, ResidualAboveBoundFails) {
  const CsrMatrix a = identity_csr(2);
  const Vec x{0.9, 0.1};  // mass fine, but A x != b
  const Vec b{0.5, 0.5};
  CertifyOptions opts;
  opts.residual_bound = 1e-3;
  const Certificate cert = certify_solution(a, x, b, opts);
  EXPECT_FALSE(cert.ok());
  EXPECT_STREQ(cert.failed_check(), "residual");
  EXPECT_NEAR(cert.residual, 0.4, 1e-15);
}

TEST(Certify, MassDriftFails) {
  const CsrMatrix a = identity_csr(2);
  const Vec x{0.6, 0.6};
  const Certificate cert = certify_solution(a, x, x, {});
  EXPECT_FALSE(cert.ok());
  EXPECT_STREQ(cert.failed_check(), "mass");
  EXPECT_NEAR(cert.mass_error, 0.2, 1e-15);
}

TEST(Certify, MassCheckCanBeDisabled) {
  const CsrMatrix a = identity_csr(2);
  const Vec x{2.0, 3.0};  // a general linear system, not a distribution
  CertifyOptions opts;
  opts.check_mass = false;
  const Certificate cert = certify_solution(a, x, x, opts);
  EXPECT_TRUE(cert.ok()) << cert.failed_check();
}

TEST(Certify, ConditionLimitRejectsHopelessSystems) {
  const CsrMatrix a = identity_csr(2);
  const Vec x{0.5, 0.5};
  CertifyOptions opts;
  EXPECT_FALSE(certify_solution(a, x, x, opts, 1e20).ok());
  EXPECT_STREQ(certify_solution(a, x, x, opts, 1e20).failed_check(), "condition");
  // 0 means "not estimated": never a failure.
  EXPECT_TRUE(certify_solution(a, x, x, opts, 0.0).ok());
  // NaN estimates must fail, not slip through a comparison.
  EXPECT_FALSE(
      certify_solution(a, x, x, opts, std::numeric_limits<double>::quiet_NaN()).ok());
  // limit <= 0 disables the check entirely.
  opts.condition_limit = 0.0;
  EXPECT_TRUE(certify_solution(a, x, x, opts, 1e20).ok());
}

TEST(CertifyDistribution, FlagsZeroAndNonFiniteVectors) {
  const Vec zeros(4, 0.0);
  EXPECT_FALSE(certify_distribution(zeros, {}).ok());
  const Vec good{0.25, 0.25, 0.25, 0.25};
  EXPECT_TRUE(certify_distribution(good, {}).ok());
  Vec bad = good;
  bad[2] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(certify_distribution(bad, {}).ok());
}

TEST(Norm1, DenseAndCsrAgree) {
  DenseMatrix d(2, 2);
  d(0, 0) = 1.0;
  d(0, 1) = -3.0;
  d(1, 0) = 2.0;
  d(1, 1) = 0.5;
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, -3.0);
  coo.add(1, 0, 2.0);
  coo.add(1, 1, 0.5);
  const CsrMatrix s = CsrMatrix::from_coo(coo);
  EXPECT_DOUBLE_EQ(norm1(d), 3.5);  // max column sum: |-3| + |0.5|
  EXPECT_DOUBLE_EQ(norm1(s), 3.5);
}

TEST(Condest, ExactOnDiagonalMatrices) {
  // cond_1(diag(d)) = max|d| / min|d|, and Hager is exact for diagonal A.
  const Vec d{4.0, 0.5, 2.0, 1e-3};
  const std::size_t n = d.size();
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = d[i];
  const double a_norm = norm1(a);
  const LuFactorization f = lu_factor(std::move(a));
  ASSERT_FALSE(f.singular());
  EXPECT_NEAR(inverse_norm1_estimate(f), 1.0 / 1e-3, 1e-9);
  EXPECT_NEAR(condest_1(a_norm, f), 4.0 / 1e-3, 1e-6);
}

TEST(Condest, LowerBoundsAndTracksTrueConditionOnRandomMatrices) {
  std::mt19937 gen(1234);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 8;
    DenseMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(gen);
      a(i, i) += 4.0;  // keep it comfortably nonsingular
    }
    DenseMatrix a_copy = a;
    const LuFactorization f = lu_factor(std::move(a_copy));
    ASSERT_FALSE(f.singular());
    // Exact ||A^{-1}||_1 by solving against every unit vector.
    double exact = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      Vec e(n, 0.0);
      e[j] = 1.0;
      const Vec col = f.solve(e);
      double s = 0.0;
      for (double v : col) s += std::abs(v);
      exact = std::max(exact, s);
    }
    const double est = inverse_norm1_estimate(f);
    EXPECT_LE(est, exact * (1.0 + 1e-12)) << "trial " << trial;
    EXPECT_GE(est, exact / 3.0) << "trial " << trial;  // Hager rarely off by >2x
  }
}

TEST(Condest, SingularFactorizationIsInfinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  const LuFactorization f = lu_factor(std::move(a));
  ASSERT_TRUE(f.singular());
  EXPECT_TRUE(std::isinf(inverse_norm1_estimate(f)));
}

TEST(CompensatedKernels, RecoverMassPlainSummationLoses) {
  // 1 followed by many tiny terms: plain accumulation drops them all.
  const std::size_t m = 1000;
  Vec v(m + 1, 1e-18);
  v[0] = 1.0;
  double plain = 0.0;
  for (double x : v) plain += x;
  EXPECT_DOUBLE_EQ(plain, 1.0);  // the loss this kernel exists to fix
  EXPECT_NEAR(sum_compensated(v), 1.0 + 1e-15, 3e-16);
  Vec ones(m + 1, 1.0);
  EXPECT_NEAR(dot_compensated(v, ones), 1.0 + 1e-15, 3e-16);
}

TEST(Certify, FailuresAreCountedAndTraced) {
  tags::obs::Counter checks("numerics.certify.checks");
  tags::obs::Counter failures("numerics.certify.failures");
  const std::uint64_t c0 = checks.value();
  const std::uint64_t f0 = failures.value();
  const CsrMatrix a = identity_csr(2);
  const Vec good{0.5, 0.5};
  const Vec bad{0.9, 0.9};
  (void)certify_solution(a, good, good, {});
  (void)certify_solution(a, bad, bad, {});
  EXPECT_EQ(checks.value(), c0 + 2);
  EXPECT_EQ(failures.value(), f0 + 1);
}

}  // namespace
