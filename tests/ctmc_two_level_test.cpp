// The two-level Gauss-Seidel solve: chains whose builders supply a
// partition of their states are solved by sweeps plus, at each residual
// check, a rescaling of the blocks to the stationary masses of the coarse
// chain on them. It agrees with dense LU, takes no more sweeps than plain
// Gauss-Seidel where the slow mode is not between the blocks, stops its
// steps cleanly where the coarse chain is reducible, and its partition
// is structure: the TAGS builders and PEPA derivation attach it, and
// copies and rate rebinds keep it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "ctmc/builder.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/inflow_rows.hpp"
#include "models/pepa_sources.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "pepa/derivation.hpp"
#include "pepa/parser.hpp"

namespace {

using namespace tags;
using linalg::CsrMatrix;
using linalg::index_t;

/// The generator without its partition: transposed() assembles from COO,
/// which attaches none, so the double transpose is the same matrix bare.
CsrMatrix bare(const CsrMatrix& q) { return q.transposed().transposed(); }

ctmc::SteadyStateResult solve(const CsrMatrix& q, ctmc::SteadyStateMethod method,
                              double tol = 1e-11) {
  ctmc::SteadyStateOptions opts;
  opts.method = method;
  opts.tol = tol;
  return ctmc::steady_state(q, opts);
}

std::size_t block_count(const CsrMatrix& q) {
  const auto p = q.partition();
  return p.empty() ? 0 : static_cast<std::size_t>(*std::max_element(p.begin(), p.end())) + 1;
}

/// Nearly completely decomposable chain with its blocks as the partition:
/// `blocks` rings of `size` states with strong internal rates (a cycle plus
/// random chords, rates in [1, 2]) joined by a weak inter-block ring (rates
/// around 1e-3). Irreducible by construction.
ctmc::Ctmc random_block_chain(unsigned blocks, unsigned size, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> strong(1.0, 2.0);
  std::uniform_real_distribution<double> weak(5e-4, 1.5e-3);
  std::uniform_int_distribution<unsigned> pick(0, size - 1);
  ctmc::CtmcBuilder b;
  std::vector<index_t> partition;
  for (unsigned blk = 0; blk < blocks; ++blk) {
    const unsigned base = blk * size;
    for (unsigned i = 0; i < size; ++i) {
      b.add(base + i, base + (i + 1) % size, strong(gen));
      partition.push_back(blk);
    }
    for (unsigned e = 0; e < size; ++e) {
      const unsigned from = pick(gen);
      const unsigned to = pick(gen);
      if (from != to) b.add(base + from, base + to, strong(gen));
    }
    b.add(base + pick(gen), ((blk + 1) % blocks) * size + pick(gen), weak(gen));
  }
  return b.build(std::move(partition));
}

TEST(TwoLevel, AgreesWithDenseLuOnASmallH2Chain) {
  models::TagsH2Params p;
  p.n = 2;
  p.k1 = p.k2 = 3;
  const models::TagsH2Model model(p);
  const CsrMatrix& q = model.chain().generator();
  ASSERT_EQ(block_count(q), static_cast<std::size_t>(p.k2 * (p.n + 3) + 1));
  const auto exact = solve(q, ctmc::SteadyStateMethod::kDenseLu);
  const auto two_level = solve(q, ctmc::SteadyStateMethod::kGaussSeidel, 1e-14);
  const auto plain = solve(bare(q), ctmc::SteadyStateMethod::kGaussSeidel, 1e-14);
  ASSERT_TRUE(exact.converged);
  ASSERT_TRUE(two_level.certificate.ok()) << two_level.certificate.failed_check();
  EXPECT_LT(linalg::max_abs_diff(two_level.pi, exact.pi), 1e-10);
  // Long jobs hold node 2 for a long time: the steps cut the sweeps.
  ASSERT_TRUE(plain.converged);
  EXPECT_LT(two_level.iterations, plain.iterations);
}

TEST(TwoLevel, MatchesDenseLuOnRandomNearlyDecomposableChains) {
  for (unsigned seed = 100; seed < 150; ++seed) {
    const auto chain = random_block_chain(4 + seed % 5, 10 + seed % 7, seed);
    const CsrMatrix& q = chain.generator();
    ASSERT_EQ(block_count(q), 4 + seed % 5);
    const auto two_level = solve(q, ctmc::SteadyStateMethod::kGaussSeidel, 1e-14);
    ASSERT_TRUE(two_level.converged) << "seed " << seed;
    const auto exact = solve(q, ctmc::SteadyStateMethod::kDenseLu);
    ASSERT_TRUE(exact.converged);
    EXPECT_LT(linalg::max_abs_diff(two_level.pi, exact.pi), 1e-8) << "seed " << seed;
  }
}

TEST(TwoLevel, WarmStartConverges) {
  const auto chain = random_block_chain(6, 20, 9);
  const CsrMatrix& q = chain.generator();
  const auto cold = solve(q, ctmc::SteadyStateMethod::kGaussSeidel, 1e-12);
  ASSERT_TRUE(cold.converged);
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  opts.tol = 1e-12;
  opts.initial_guess = cold.pi;
  const auto warm = ctmc::steady_state(q, opts);
  ASSERT_TRUE(warm.converged);
  // Restarting from the answer converges at least as fast as cold.
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_LT(linalg::max_abs_diff(warm.pi, cold.pi), 1e-10);
}

TEST(TwoLevel, GuardKeepsDeepChainsAtThePlainSweepCount) {
  // K2 = 1: 9 node-2 blocks, and the slow mode runs within node 1. A step
  // rescales the blocks by about 1% without speeding the sweeps up, so the
  // gain test ends the steps after one, which keeps pi: plain
  // Gauss-Seidel's residual is not monotone here, and the step leaves
  // every later residual below the plain ones, so the count never exceeds
  // plain Gauss-Seidel's.
  models::TagsParams tp;
  tp.k1 = 64;
  tp.k2 = 1;
  const models::TagsModel tags_model(tp);
  const models::TagsH2Model h2_model(
      models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, 12.0, 6, 64, 1));
  for (const CsrMatrix* q : {&tags_model.chain().generator(), &h2_model.chain().generator()}) {
    ASSERT_GT(q->inflow_cache().blocks(), 0u);
    const auto two_level = ctmc::steady_state(*q);
    const auto plain = ctmc::steady_state(bare(*q));
    EXPECT_TRUE(two_level.certificate.ok());
    EXPECT_LE(two_level.iterations, plain.iterations)
        << two_level.iterations << " against " << plain.iterations;
  }
}

TEST(TwoLevel, RareTimeoutSquareChainMatchesDenseLu) {
  // t = 0.3 on the fig06 square chain: host-2 re-runs are rare, so node 2
  // holds a job with probability about 2e-9, and plain Gauss-Seidel at the
  // default tolerance leaves mean_q2 2.7x off. The reference is dense LU
  // on this chain (perfbench/reference/fast_paths.csv, tags_sq_t0.3).
  models::TagsParams p;
  p.t = 0.3;
  const models::TagsModel model(p);
  const auto r = ctmc::steady_state(model.chain().generator());
  EXPECT_EQ(r.method_used, ctmc::SteadyStateMethod::kGaussSeidel);
  ASSERT_TRUE(r.certificate.ok()) << r.certificate.failed_check();
  EXPECT_LE(r.iterations, 160);
  constexpr double kDenseLuMeanQ2 = 2.0824729424331758e-09;
  EXPECT_NEAR(model.metrics_from(r.pi).mean_q2, kDenseLuMeanQ2, 1e-5 * kDenseLuMeanQ2);
}

TEST(TwoLevel, ReducibleCoarseChainStopsTheStepsCleanly) {
  // State 3 is absorbing and sits in a block of its own, so the coarse
  // chain cannot leave it: the step declines, and the sweeps run on without
  // poisoning pi.
  ctmc::CtmcBuilder b;
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(0, 2, 1e-3);
  b.add(2, 3, 1.0);
  b.ensure_states(4);
  const auto chain = b.build({0, 0, 1, 2});
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  opts.max_iter = 64;
  const auto r = ctmc::steady_state(chain, opts);
  ASSERT_EQ(r.pi.size(), 4u);
  for (const double v : r.pi) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(r.residual));
}

TEST(TwoLevel, PartitionSurvivesRebindAndCopy) {
  models::TagsParams p;
  p.t = 40.0;
  models::TagsModel model(p);
  const CsrMatrix& q = model.chain().generator();
  ASSERT_EQ(q.partition().size(), static_cast<std::size_t>(model.n_states()));
  ASSERT_EQ(block_count(q), 81u);  // K2 (n + 2) + 1 node-2 states
  for (index_t idx = 0; idx < model.n_states(); ++idx) {
    ASSERT_EQ(q.partition()[static_cast<std::size_t>(idx)], idx % 81);
  }
  const std::vector<index_t> before(q.partition().begin(), q.partition().end());
  (void)ctmc::steady_state(q);  // builds the cached copy and its entry list

  const CsrMatrix copy = q;
  EXPECT_TRUE(std::equal(copy.partition().begin(), copy.partition().end(), before.begin(),
                         before.end()));

  p.t = 45.0;
  model.rebind(p);
  EXPECT_TRUE(std::equal(q.partition().begin(), q.partition().end(), before.begin(),
                         before.end()));
  // The entry list is structure and the refreshed copy holds the new
  // values, so the rebound chain solves exactly like a fresh build.
  const auto rebound = ctmc::steady_state(q);
  const auto fresh = ctmc::steady_state(models::TagsModel(p).chain().generator());
  EXPECT_EQ(rebound.iterations, fresh.iterations);
  ASSERT_EQ(rebound.pi.size(), fresh.pi.size());
  EXPECT_EQ(std::memcmp(rebound.pi.data(), fresh.pi.data(), fresh.pi.size() * sizeof(double)),
            0);
}

TEST(TwoLevel, PepaPartitionComesFromTheRightOperand) {
  models::TagsParams p;
  p.n = 2;
  p.k1 = p.k2 = 2;
  const auto dm = pepa::derive(pepa::parse_model(models::tags_pepa_source(p)), "System");
  const CsrMatrix& q = dm.chain.generator();
  ASSERT_EQ(q.partition().size(), dm.states.size());
  // System = Node1 <timeout> Node2 with Node2 = Q2 <...> T2, leaves 2 and 3:
  // one block per reachable (Q2, T2) pair, the direct builder's node-2
  // states.
  std::map<std::pair<pepa::seq_id, pepa::seq_id>, index_t> block_of;
  for (std::size_t s = 0; s < dm.states.size(); ++s) {
    const auto local = std::make_pair(dm.states[s][2], dm.states[s][3]);
    const auto [it, fresh] = block_of.emplace(local, q.partition()[s]);
    EXPECT_EQ(it->second, q.partition()[s]) << "state " << s;
  }
  EXPECT_EQ(block_of.size(), static_cast<std::size_t>(p.k2 * (p.n + 2) + 1));
  EXPECT_EQ(block_count(q), block_of.size());

  // A sequential system has no cooperation to split, so no partition.
  const auto seq = pepa::derive(pepa::parse_model("P = (a, 2).P2; P2 = (b, 1).P;"), "P");
  EXPECT_TRUE(seq.chain.generator().partition().empty());
}

}  // namespace
