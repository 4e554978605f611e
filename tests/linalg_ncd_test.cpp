// NCD partition detection, the aggregation-disaggregation solver, and its
// gate in the kAuto chain: strong edges never cross block boundaries, the
// blocks-contiguous permutation is consistent, IAD matches dense LU on
// randomized nearly-decomposable chains, the coupling gate declines the
// strongly-coupled TAGS chain bit-identically to the pre-NCD chain, an
// NCD-AD fall-through is traced as handing over to the stage that runs
// next, and the rebind-aware partition cache survives value rebinds while a dimension
// change invalidates it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/builder.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/coo.hpp"
#include "linalg/ncd.hpp"
#include "linalg/vector_ops.hpp"
#include "models/tags.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;
using linalg::CsrMatrix;
using linalg::index_t;

/// Nearly completely decomposable chain: `blocks` rings of `size` states
/// with strong internal rates (a cycle plus random chords, rates in [1,2])
/// joined by a weak inter-block ring (rates around 1e-3). Irreducible by
/// construction — every state lies on its block cycle and every block lies
/// on the inter-block cycle.
ctmc::Ctmc random_ncd_chain(unsigned blocks, unsigned size, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> strong(1.0, 2.0);
  std::uniform_real_distribution<double> weak(5e-4, 1.5e-3);
  std::uniform_int_distribution<unsigned> pick(0, size - 1);
  ctmc::CtmcBuilder b;
  for (unsigned blk = 0; blk < blocks; ++blk) {
    const unsigned base = blk * size;
    for (unsigned i = 0; i < size; ++i) {
      b.add(base + i, base + (i + 1) % size, strong(gen));
    }
    for (unsigned e = 0; e < size; ++e) {
      const unsigned from = pick(gen);
      const unsigned to = pick(gen);
      if (from == to) continue;
      b.add(base + from, base + to, strong(gen));
    }
    b.add(base + pick(gen), ((blk + 1) % blocks) * size + pick(gen), weak(gen));
  }
  return b.build();
}

/// Detection options for the small randomized chains: same thresholds as
/// the defaults but without the ctmc layer's size gate, which is policy,
/// not correctness.
linalg::NcdOptions small_chain_opts() {
  linalg::NcdOptions o;
  o.min_states = 2;
  return o;
}

models::TagsParams square_params(double t) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = t;
  p.n = 6;
  p.k1 = p.k2 = 10;
  return p;
}

TEST(NcdPartition, StrongEdgesNeverCrossBlocks) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const auto chain = random_ncd_chain(4 + seed % 4, 12 + seed, seed);
    const CsrMatrix& q = chain.generator();
    const auto p = linalg::detect_ncd(q, small_chain_opts());
    ASSERT_GT(p.scale, 0.0);
    const double thresh = small_chain_opts().epsilon * p.scale;
    for (index_t i = 0; i < q.rows(); ++i) {
      const auto cols = q.row_cols(i);
      const auto vals = q.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] == i || vals[k] < thresh) continue;
        EXPECT_EQ(p.block_of[static_cast<std::size_t>(i)],
                  p.block_of[static_cast<std::size_t>(cols[k])])
            << "strong edge " << i << "->" << cols[k] << " crosses blocks";
      }
    }
  }
}

TEST(NcdPartition, PermutationAndBlockTablesAgree) {
  const auto chain = random_ncd_chain(6, 17, 42);
  const CsrMatrix& q = chain.generator();
  const auto p = linalg::detect_ncd(q, small_chain_opts());
  const auto n = static_cast<std::size_t>(q.rows());
  ASSERT_EQ(p.perm.order.size(), n);
  ASSERT_EQ(p.block_of.size(), n);
  ASSERT_GE(p.n_blocks(), 2u);

  // perm is a bijection new->old.
  std::vector<int> seen(n, 0);
  for (index_t old : p.perm.order) {
    ASSERT_GE(old, 0);
    ASSERT_LT(static_cast<std::size_t>(old), n);
    ++seen[static_cast<std::size_t>(old)];
  }
  for (int c : seen) EXPECT_EQ(c, 1);

  // block_ptr brackets exactly the states block_of assigns, contiguously.
  ASSERT_EQ(p.block_ptr.front(), 0);
  ASSERT_EQ(static_cast<std::size_t>(p.block_ptr.back()), n);
  index_t max_block = 0;
  for (std::size_t blk = 0; blk < p.n_blocks(); ++blk) {
    const index_t lo = p.block_ptr[blk];
    const index_t hi = p.block_ptr[blk + 1];
    ASSERT_LT(lo, hi);
    max_block = std::max(max_block, hi - lo);
    for (index_t k = lo; k < hi; ++k) {
      const index_t old = p.perm.order[static_cast<std::size_t>(k)];
      EXPECT_EQ(p.block_of[static_cast<std::size_t>(old)],
                static_cast<index_t>(blk));
    }
  }
  EXPECT_EQ(p.max_block, max_block);
}

TEST(NcdPartition, RecoversPlantedBlocksAndCoupling) {
  const unsigned blocks = 8, size = 15;
  const auto chain = random_ncd_chain(blocks, size, 7);
  const CsrMatrix& q = chain.generator();
  const auto p = linalg::detect_ncd(q, small_chain_opts());
  EXPECT_EQ(p.n_blocks(), blocks);
  EXPECT_TRUE(p.decomposable);
  EXPECT_TRUE(p.profitable) << p.gate_reason;
  EXPECT_STREQ(p.gate_reason, "");

  // Brute-force the coupling estimate: max over states of inter-block
  // outflow relative to the largest exit rate.
  double scale = 0.0;
  for (index_t i = 0; i < q.rows(); ++i) {
    const double d = q.at(i, i);
    scale = std::max(scale, -d);
  }
  EXPECT_DOUBLE_EQ(p.scale, scale);
  double coupling = 0.0;
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cols = q.row_cols(i);
    const auto vals = q.row_vals(i);
    double out = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] != i && p.block_of[static_cast<std::size_t>(i)] !=
                              p.block_of[static_cast<std::size_t>(cols[k])]) {
        out += vals[k];
      }
    }
    coupling = std::max(coupling, out / scale);
  }
  EXPECT_NEAR(p.coupling, coupling, 1e-15);
  EXPECT_LT(p.coupling, small_chain_opts().max_coupling);
}

TEST(NcdIad, MatchesDenseLuOnRandomChains) {
  int solved = 0;
  for (unsigned seed = 100; seed < 150; ++seed) {
    const auto chain = random_ncd_chain(4 + seed % 5, 10 + seed % 7, seed);
    const CsrMatrix& q = chain.generator();
    const auto part = linalg::detect_ncd(q, small_chain_opts());
    ASSERT_GE(part.n_blocks(), 2u) << "seed " << seed;

    linalg::NcdSolveOptions so;
    so.tol = 1e-12;
    const auto iad = linalg::ncd_steady_state(q, part, so);
    ASSERT_TRUE(iad.converged) << "seed " << seed << " residual " << iad.residual;

    ctmc::SteadyStateOptions lu;
    lu.method = ctmc::SteadyStateMethod::kDenseLu;
    const auto exact = ctmc::steady_state(q, lu);
    ASSERT_TRUE(exact.converged);
    EXPECT_LT(linalg::max_abs_diff(iad.pi, exact.pi), 1e-8) << "seed " << seed;
    ++solved;
  }
  EXPECT_EQ(solved, 50);
}

TEST(NcdIad, ExplicitRequestThroughCtmcCertifies) {
  const auto chain = random_ncd_chain(6, 20, 3);
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kNcdAd;
  opts.ncd_opts = small_chain_opts();
  const auto res = ctmc::steady_state(chain.generator(), opts);
  EXPECT_EQ(res.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_TRUE(res.attempts.front().gate_reason.empty());
}

TEST(NcdIad, WarmStartConverges) {
  const auto chain = random_ncd_chain(6, 20, 9);
  const CsrMatrix& q = chain.generator();
  const auto part = linalg::detect_ncd(q, small_chain_opts());
  linalg::NcdSolveOptions so;
  so.tol = 1e-12;
  const auto cold = linalg::ncd_steady_state(q, part, so);
  ASSERT_TRUE(cold.converged);
  so.initial_guess = cold.pi;
  const auto warm = linalg::ncd_steady_state(q, part, so);
  ASSERT_TRUE(warm.converged);
  // Restarting from the answer must converge at least as fast as cold.
  EXPECT_LE(warm.outer, cold.outer);
  EXPECT_LT(linalg::max_abs_diff(warm.pi, cold.pi), 1e-10);
}

TEST(NcdIad, ZeroDiagonalBailsOutCleanly) {
  // Two strong blocks, but state 3 is absorbing (no exit, zero diagonal):
  // the solver must refuse without poisoning anything.
  linalg::CooMatrix coo(4, 4);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(0, 0, -1.001);
  coo.add(1, 1, -1.0);
  coo.add(0, 2, 1e-3);
  coo.add(2, 3, 1.0);
  coo.add(2, 2, -1.0);
  const CsrMatrix q = CsrMatrix::from_coo(coo);
  const auto part = linalg::detect_ncd(q, small_chain_opts());
  ASSERT_GE(part.n_blocks(), 2u);
  const auto res = linalg::ncd_steady_state(q, part);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.pi.empty());
  EXPECT_FALSE(std::isfinite(res.residual));  // stays at the +inf sentinel
}

TEST(NcdGate, StronglyCoupledTagsChainDeclined) {
  // The classic square chain at t=50: timeouts dominate, every state
  // communicates strongly, and the strong-edge graph collapses to one
  // component. The gate must say so.
  const models::TagsModel model(square_params(50.0));
  const auto p = linalg::detect_ncd(model.chain().generator());
  EXPECT_FALSE(p.profitable);
  EXPECT_STREQ(p.gate_reason, "one-block");
}

TEST(NcdGate, DeclinedChainIsBitIdenticalToNcdOff) {
  const models::TagsModel model(square_params(50.0));
  const CsrMatrix& q = model.chain().generator();

  ctmc::SteadyStateOptions on;  // defaults: ncd enabled
  const auto with_ncd = ctmc::steady_state(q, on);
  ctmc::SteadyStateOptions off;
  off.ncd = false;
  const auto without = ctmc::steady_state(q, off);

  ASSERT_TRUE(with_ncd.converged);
  ASSERT_TRUE(without.converged);
  EXPECT_EQ(with_ncd.method_used, without.method_used);
  // Bit-identical, not approximately equal: the gate must keep the solver
  // off the chain entirely, so no rounding can differ.
  ASSERT_EQ(with_ncd.pi.size(), without.pi.size());
  EXPECT_EQ(std::memcmp(with_ncd.pi.data(), without.pi.data(),
                        with_ncd.pi.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&with_ncd.residual, &without.residual, sizeof(double)), 0);
  EXPECT_EQ(with_ncd.iterations, without.iterations);

  // The gate leaves an audit trail: a gated entry for the declined fast
  // path, and the executed attempts match the ncd-off chain exactly.
  bool saw_ncd_gate = false;
  std::vector<ctmc::SteadyStateMethod> executed_on, executed_off;
  for (const auto& a : with_ncd.attempts) {
    if (a.method == ctmc::SteadyStateMethod::kNcdAd && !a.gate_reason.empty()) {
      saw_ncd_gate = true;
      EXPECT_EQ(a.gate_reason, "one-block");
      EXPECT_FALSE(a.converged);
      EXPECT_EQ(a.iterations, 0);
    }
    if (a.gate_reason.empty()) executed_on.push_back(a.method);
  }
  for (const auto& a : without.attempts) {
    EXPECT_NE(a.method, ctmc::SteadyStateMethod::kNcdAd);
    if (a.gate_reason.empty()) executed_off.push_back(a.method);
  }
  EXPECT_TRUE(saw_ncd_gate);
  EXPECT_EQ(executed_on, executed_off);
}

TEST(NcdGate, RareTimeoutTagsChainAccepted) {
  // The short-cutoff chain the solver exists for: the coupling gate
  // accepts, and kAuto lands on NCD-AD with a clean certificate matching
  // the generic chain's answer.
  const models::TagsModel model(square_params(0.4));
  const CsrMatrix& q = model.chain().generator();
  const auto res = ctmc::steady_state(q, {});
  EXPECT_EQ(res.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();

  ctmc::SteadyStateOptions off;
  off.ncd = false;
  const auto generic = ctmc::steady_state(q, off);
  ASSERT_TRUE(generic.converged);
  EXPECT_LT(linalg::max_abs_diff(res.pi, generic.pi), 1e-7);
}

TEST(NcdGate, FallbackTraceNamesTheStageThatRunsNext) {
  // A weakly-coupled chain above the dense-LU ceiling, with a certificate
  // nothing can pass: every stage runs and falls through. NCD-AD hands
  // over to Gauss-Seidel, the stage that actually runs next, not to the
  // dense LU this chain size leaves out.
  const auto chain = random_ncd_chain(8, 160, 77);
  ctmc::SteadyStateOptions opts;
  opts.certify_opts.residual_bound = 0.0;
  opts.max_iter = 64;  // nothing can certify; don't burn the budget
#if TAGS_OBS_ENABLED
  const obs::Level level = obs::level();
  auto sink = std::make_shared<obs::MemorySink>();
  obs::install_trace_sink(sink, /*sample_every=*/1);
#endif
  const auto res = ctmc::steady_state(chain, opts);
  EXPECT_FALSE(res.certificate.ok());
  std::vector<std::string> tried;
  for (const auto& a : res.attempts) tried.emplace_back(ctmc::to_string(a.method));
  EXPECT_EQ(tried,
            (std::vector<std::string>{"ncd-ad", "gauss-seidel", "power"}));
#if TAGS_OBS_ENABLED
  obs::clear_trace_sink();
  obs::set_level(level);
  std::vector<std::pair<std::string, std::string>> fallbacks;
  for (const obs::TraceEvent& ev : sink->events()) {
    if (ev.name != "steady_state.fallback") continue;
    std::string from, to;
    for (const auto& [key, value] : ev.str) {
      if (key == "from") from = value;
      if (key == "to") to = value;
    }
    fallbacks.emplace_back(from, to);
  }
  EXPECT_EQ(fallbacks, (std::vector<std::pair<std::string, std::string>>{
                           {"ncd-ad", "gauss-seidel"},
                           {"gauss-seidel", "power"}}));
#endif
}

TEST(NcdCache, ValueRebindReusesPartition) {
  models::TagsModel model(square_params(0.4));
  linalg::NcdPartitionCache cache;

#if TAGS_OBS_ENABLED
  obs::Counter built("ncd.partitions_built");
  obs::Counter hits("ncd.cache.hits");
  const std::uint64_t built0 = built.value();
  const std::uint64_t hits0 = hits.value();
#endif

  const auto first = cache.partition(model.chain().generator(), {});
  ASSERT_TRUE(first.profitable) << first.gate_reason;
  const auto first_ptr = first.block_ptr;

  // Rebind rates on the frozen pattern: same (rows, nnz) key, so the
  // cache must reuse the partition and only re-judge the gate.
  model.rebind(square_params(0.45));
  const auto second = cache.partition(model.chain().generator(), {});
  EXPECT_EQ(second.block_ptr, first_ptr);

#if TAGS_OBS_ENABLED
  EXPECT_EQ(built.value(), built0 + 1);
  EXPECT_EQ(hits.value(), hits0 + 1);
#endif
}

TEST(NcdCache, DimensionChangeInvalidates) {
  linalg::NcdPartitionCache cache;
  const models::TagsModel big(square_params(0.4));
  auto small_p = square_params(0.4);
  small_p.k1 = small_p.k2 = 8;
  const models::TagsModel small(small_p);

#if TAGS_OBS_ENABLED
  obs::Counter built("ncd.partitions_built");
  obs::Counter invalidated("ncd.cache.invalidated");
  const std::uint64_t built0 = built.value();
  const std::uint64_t inv0 = invalidated.value();
#endif

  const auto a = cache.partition(big.chain().generator(), {});
  const auto b = cache.partition(small.chain().generator(), {});
  EXPECT_NE(a.block_of.size(), b.block_of.size());
  EXPECT_EQ(static_cast<index_t>(b.block_of.size()), small.n_states());

#if TAGS_OBS_ENABLED
  EXPECT_EQ(built.value(), built0 + 2);
  EXPECT_EQ(invalidated.value(), inv0 + 1);
#endif
}

TEST(NcdCache, WarmStartStateCarriesCacheAcrossSweepPoints) {
  // The sweep-shard wiring end to end: reconcile installs a partition
  // cache, the first solve detects, the rebound second solve hits the
  // cache and warm-starts from the previous pi — still on the NCD path,
  // still certified.
  models::TagsModel model(square_params(0.4));
  ctmc::WarmStartState ws;
  ws.reconcile(model.n_states());
  ASSERT_NE(ws.opts.ncd_cache, nullptr);

  const auto first = ctmc::steady_state(model.chain().generator(), ws.opts);
  ASSERT_EQ(first.method_used, ctmc::SteadyStateMethod::kNcdAd);
  ASSERT_TRUE(first.certificate.ok());
  ws.accept(first);

  model.rebind(square_params(0.45));
  ws.reconcile(model.n_states());
  ASSERT_TRUE(ws.opts.initial_guess.has_value());

#if TAGS_OBS_ENABLED
  obs::Counter hits("ncd.cache.hits");
  const std::uint64_t hits0 = hits.value();
#endif
  const auto second = ctmc::steady_state(model.chain().generator(), ws.opts);
  EXPECT_EQ(second.method_used, ctmc::SteadyStateMethod::kNcdAd);
  EXPECT_TRUE(second.converged);
  EXPECT_TRUE(second.certificate.ok()) << second.certificate.failed_check();
#if TAGS_OBS_ENABLED
  EXPECT_GE(hits.value(), hits0 + 1);
#endif
}

}  // namespace
