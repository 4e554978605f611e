// Property tests on randomly generated irreducible CTMCs: all steady-state
// solvers must agree with the dense-LU reference, measures must be
// consistent, and first-passage times must satisfy the one-step equations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

#include "ctmc/builder.hpp"
#include "ctmc/first_passage.hpp"
#include "ctmc/measures.hpp"
#include "ctmc/reachability.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/uniformization.hpp"
#include "linalg/coo.hpp"

namespace {

using namespace tags;

/// Random chain guaranteed irreducible: a Hamiltonian cycle plus random
/// extra edges with random rates.
ctmc::Ctmc random_chain(unsigned n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> rate(0.1, 20.0);
  std::uniform_int_distribution<unsigned> pick(0, n - 1);
  ctmc::CtmcBuilder b;
  for (unsigned i = 0; i < n; ++i) {
    b.add(i, (i + 1) % n, rate(gen), "cycle");
  }
  for (unsigned e = 0; e < 3 * n; ++e) {
    const unsigned from = pick(gen);
    const unsigned to = pick(gen);
    if (from == to) continue;
    b.add(from, to, rate(gen), "extra");
  }
  return b.build();
}

class RandomChainTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomChainTest, AllSolversAgreeWithDenseLu) {
  const unsigned n = 5 + 7 * GetParam();
  const auto chain = random_chain(n, 1000 + GetParam());
  ASSERT_TRUE(ctmc::is_irreducible(chain));

  ctmc::SteadyStateOptions lu_opts;
  lu_opts.method = ctmc::SteadyStateMethod::kDenseLu;
  const auto reference = ctmc::steady_state(chain, lu_opts);
  ASSERT_TRUE(reference.converged);

  for (const auto method :
       {ctmc::SteadyStateMethod::kGaussSeidel, ctmc::SteadyStateMethod::kPower}) {
    ctmc::SteadyStateOptions opts;
    opts.method = method;
    opts.tol = 1e-11;
    const auto r = ctmc::steady_state(chain, opts);
    ASSERT_TRUE(r.converged) << "method " << static_cast<int>(method);
    EXPECT_NEAR(linalg::max_abs_diff(r.pi, reference.pi), 0.0, 1e-7)
        << "method " << static_cast<int>(method);
  }
}

TEST_P(RandomChainTest, GaussSeidelIsInvariantUnderStateReversal) {
  // Reversing the state order swaps upward and downward rate mass, so the
  // sweep direction flips with it and both solves relax the states in the
  // same order: the same sweep count up to one 16-sweep residual check, and
  // the same pi up to the certified residual.
  const unsigned n = 5 + 7 * GetParam();
  const auto chain = random_chain(n, 6000 + GetParam());
  const auto reverse = [n](linalg::index_t i) { return static_cast<linalg::index_t>(n) - 1 - i; };
  const linalg::CsrMatrix& q = chain.generator();
  linalg::CooMatrix coo(q.rows(), q.cols());
  for (linalg::index_t i = 0; i < q.rows(); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) coo.add(reverse(i), reverse(cs[k]), vs[k]);
  }
  const linalg::CsrMatrix reversed = linalg::CsrMatrix::from_coo(coo);

  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto a = ctmc::steady_state(chain.generator(), opts);
  const auto b = ctmc::steady_state(reversed, opts);
  ASSERT_TRUE(a.certificate.ok());
  ASSERT_TRUE(b.certificate.ok());
  EXPECT_LE(std::abs(a.iterations - b.iterations), 16);
  const linalg::Vec b_pi(b.pi.rbegin(), b.pi.rend());
  EXPECT_LE(linalg::max_abs_diff(a.pi, b_pi),
            std::max(a.certificate.residual, b.certificate.residual));
}

TEST_P(RandomChainTest, StationarityUnderTransientEvolution) {
  const unsigned n = 5 + 7 * GetParam();
  const auto chain = random_chain(n, 2000 + GetParam());
  const auto ss = ctmc::steady_state(chain);
  ASSERT_TRUE(ss.converged);
  // pi is a fixed point of the transient operator.
  const auto evolved = ctmc::transient_distribution(chain, ss.pi, 0.37);
  EXPECT_NEAR(linalg::max_abs_diff(evolved, ss.pi), 0.0, 1e-8);
}

TEST_P(RandomChainTest, ThroughputsSumToTotalFlow) {
  const unsigned n = 5 + 7 * GetParam();
  const auto chain = random_chain(n, 3000 + GetParam());
  const auto ss = ctmc::steady_state(chain);
  ASSERT_TRUE(ss.converged);
  // Sum of per-label throughputs == expected total exit rate.
  double by_label = 0.0;
  for (std::size_t a = 0; a < chain.label_names().size(); ++a) {
    by_label += ctmc::throughput(chain, ss.pi, static_cast<ctmc::label_t>(a));
  }
  const auto exits = chain.exit_rates();
  const double total = ctmc::expected_reward(ss.pi, exits);
  EXPECT_NEAR(by_label, total, 1e-8 * (1.0 + total));
}

TEST_P(RandomChainTest, FirstPassageSatisfiesOneStepEquations) {
  const unsigned n = 5 + 7 * GetParam();
  const auto chain = random_chain(n, 4000 + GetParam());
  const auto target = [n](ctmc::index_t i) {
    return i == static_cast<ctmc::index_t>(n - 1);
  };
  const auto fp = ctmc::mean_first_passage(chain, target);
  ASSERT_TRUE(fp.converged);
  // For non-target i: sum_j q_ij h_j = -1 (h extended by 0 on the target).
  const auto& q = chain.generator();
  for (ctmc::index_t i = 0; i + 1 < static_cast<ctmc::index_t>(n); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    double acc = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      acc += vs[k] * fp.hitting_time[static_cast<std::size_t>(cs[k])];
    }
    EXPECT_NEAR(acc, -1.0, 1e-7) << "state " << i;
  }
}

TEST_P(RandomChainTest, TransientMassConserved) {
  const unsigned n = 5 + 7 * GetParam();
  const auto chain = random_chain(n, 5000 + GetParam());
  linalg::Vec pi0(n, 0.0);
  pi0[0] = 1.0;
  for (double t : {0.01, 0.3, 2.0}) {
    const auto pit = ctmc::transient_distribution(chain, pi0, t);
    EXPECT_NEAR(linalg::sum(pit), 1.0, 1e-10);
    for (double v : pit) EXPECT_GE(v, -1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomChainTest, ::testing::Range(0u, 8u));

}  // namespace
