// Batched-vs-unbatched differential coverage (see DESIGN.md "Batched
// multi-point sweeps"): on the dense-LU path the batch width — like the
// thread count — must stay outside the determinism contract, so every
// sweep, optimizer scan and journal replay here is compared byte for byte
// against the scalar (batch = 1) run. The models stay at or below dense
// LU's 1200 states, where kAuto batches, and every kAuto test checks that
// its lanes really were factored in a batch. The batched LU kernel itself
// is pinned bitwise against linalg::lu_factor, including a singular lane
// sharing a batch with healthy ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "approx/optimizer.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/batch.hpp"
#include "linalg/dense.hpp"
#include "linalg/lu.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"

namespace {

using namespace tags;

/// The reduced model the determinism suites use: fast enough to run the
/// grid several times per test, big enough for several shards and batches,
/// and small enough (at most 1200 states) for kAuto to batch it on dense LU.
models::TagsParams reduced_model() {
  models::TagsParams base;
  base.n = 3;
  base.k1 = base.k2 = 4;
  return base;
}

/// 551 states: K1 = K2 = 4 would have 2109, above the dense-LU range, and
/// every lane would run the scalar chain.
models::TagsH2Params reduced_h2_model() {
  models::TagsH2Params base;
  base.n = 3;
  base.k1 = base.k2 = 2;
  return base;
}

/// Batched dense-LU factorisations run so far in this process (0 when
/// observability is compiled out).
std::uint64_t dense_lu_batches() {
  const auto stats = obs::span_stats();
  const auto it = stats.find("solve/dense-lu-batch");
  return it == stats.end() ? 0 : it->second.count;
}

/// A kAuto test's batched runs must have factored lanes in a batch;
/// otherwise every lane ran the scalar chain and the comparison against
/// the scalar run holds trivially. Counted through the span layer, so an
/// obs-off build cannot check it.
void expect_dense_lu_batched([[maybe_unused]] std::uint64_t batches_before) {
#if TAGS_OBS_ENABLED
  EXPECT_GT(dense_lu_batches(), batches_before)
      << "no lanes were factored in a batch: the batch path went untested";
#endif
}

const std::vector<double>& grid() {
  static const std::vector<double> ts = core::linspace(10.0, 150.0, 29);
  return ts;
}

bool same_bytes(const std::vector<models::Metrics>& a,
                const std::vector<models::Metrics>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(models::Metrics)) == 0);
}

bool same_bits(const linalg::Vec& a, const linalg::Vec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_counters_equal(const core::SweepStats& scalar,
                           const core::SweepStats& batched) {
  EXPECT_EQ(scalar.warm.hits, batched.warm.hits);
  EXPECT_EQ(scalar.warm.misses, batched.warm.misses);
  EXPECT_EQ(scalar.warm.cleared, batched.warm.cleared);
  EXPECT_EQ(scalar.warm.uncertified, batched.warm.uncertified);
  EXPECT_EQ(scalar.points, batched.points);
  EXPECT_EQ(scalar.shards, batched.shards);
}

std::string fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / ("tags_sweep_batch_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The scalar reference chain for one model family: warm-started
/// rebind/solve point by point, exactly what eval_t_chain does at batch 1.
template <class Model, class Params>
std::vector<ctmc::SteadyStateResult> scalar_chain(
    const Params& base, const std::vector<double>& ts,
    const ctmc::SteadyStateOptions& opts0 = {}) {
  std::vector<ctmc::SteadyStateResult> out;
  ctmc::WarmStartState warm;
  warm.opts = opts0;
  std::optional<Model> model;
  for (const double t : ts) {
    Params p = base;
    p.t = t;
    if (model) {
      model->rebind(p);
    } else {
      model.emplace(p);
    }
    warm.reconcile(model->n_states());
    auto r = model->solve(warm.opts);
    warm.accept(r);
    out.push_back(std::move(r));
  }
  return out;
}

/// The batched path over the same points: one CsrValueBatch, one call.
template <class Model, class Params>
std::vector<ctmc::SteadyStateResult> batch_solve(
    const Params& base, const std::vector<double>& ts,
    const ctmc::SteadyStateOptions& opts = {}) {
  std::optional<Model> model;
  std::optional<linalg::CsrValueBatch> vals;
  for (std::size_t b = 0; b < ts.size(); ++b) {
    Params p = base;
    p.t = ts[b];
    if (model) {
      model->rebind(p);
    } else {
      model.emplace(p);
    }
    const linalg::CsrMatrix& q = model->chain().generator();
    if (!vals) vals.emplace(q, ts.size());
    vals->load_lane(b, q);
  }
  return ctmc::steady_state_batch(*vals, opts);
}

void expect_results_identical(const std::vector<ctmc::SteadyStateResult>& scalar,
                              const std::vector<ctmc::SteadyStateResult>& batched) {
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t b = 0; b < scalar.size(); ++b) {
    SCOPED_TRACE("lane " + std::to_string(b));
    EXPECT_EQ(scalar[b].converged, batched[b].converged);
    EXPECT_EQ(scalar[b].method_used, batched[b].method_used);
    EXPECT_EQ(scalar[b].iterations, batched[b].iterations);
    EXPECT_EQ(scalar[b].attempts.size(), batched[b].attempts.size());
    EXPECT_TRUE(same_bits(scalar[b].pi, batched[b].pi));
    std::uint64_t ra = 0;
    std::uint64_t rb = 0;
    std::memcpy(&ra, &scalar[b].residual, sizeof ra);
    std::memcpy(&rb, &batched[b].residual, sizeof rb);
    EXPECT_EQ(ra, rb);
    EXPECT_EQ(scalar[b].certificate.ok(), batched[b].certificate.ok());
  }
}

TEST(SweepBatch, TagsSweepBitIdenticalAcrossBatchWidths) {
  core::SweepStats scalar_stats;
  const auto scalar = core::tags_t_sweep(
      reduced_model(), grid(), {.threads = 1, .shard_size = 5, .batch = 1},
      &scalar_stats);
  ASSERT_EQ(scalar.size(), grid().size());
  for (const std::size_t batch : {std::size_t{4}, std::size_t{7}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::uint64_t batches = dense_lu_batches();
    core::SweepStats stats;
    const auto batched = core::tags_t_sweep(
        reduced_model(), grid(), {.threads = 1, .shard_size = 5, .batch = batch},
        &stats);
    expect_dense_lu_batched(batches);
    EXPECT_TRUE(same_bytes(scalar, batched));
    expect_counters_equal(scalar_stats, stats);
  }
}

TEST(SweepBatch, H2SweepBitIdenticalAcrossBatchWidths) {
  core::SweepStats scalar_stats;
  const auto scalar = core::tags_h2_t_sweep(
      reduced_h2_model(), grid(), {.threads = 1, .shard_size = 5, .batch = 1},
      &scalar_stats);
  for (const std::size_t batch : {std::size_t{4}, std::size_t{7}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::uint64_t batches = dense_lu_batches();
    core::SweepStats stats;
    const auto batched = core::tags_h2_t_sweep(
        reduced_h2_model(), grid(), {.threads = 1, .shard_size = 5, .batch = batch},
        &stats);
    expect_dense_lu_batched(batches);
    EXPECT_TRUE(same_bytes(scalar, batched));
    expect_counters_equal(scalar_stats, stats);
  }
}

TEST(SweepBatch, BatchComposesWithThreads) {
  // Thread count and batch width are both outside the determinism
  // contract; together they must still reproduce the serial scalar bytes.
  core::SweepStats ref_stats;
  const auto reference = core::tags_t_sweep(
      reduced_model(), grid(), {.threads = 1, .shard_size = 3, .batch = 1},
      &ref_stats);
  const std::uint64_t batches = dense_lu_batches();
  core::SweepStats stats;
  const auto combined = core::tags_t_sweep(
      reduced_model(), grid(), {.threads = 4, .shard_size = 3, .batch = 4}, &stats);
  expect_dense_lu_batched(batches);
  EXPECT_TRUE(same_bytes(reference, combined));
  expect_counters_equal(ref_stats, stats);
}

TEST(SweepBatch, SteadyStateBatchMatchesScalarChainWithCertificates) {
  // Direct API differential: one batched call vs the warm-started scalar
  // chain, lane by lane. Every lane must also carry its own accepted
  // certificate — certification stays per point in a batched solve — and
  // come from the batched dense-LU factorisation, kAuto's first stage here.
  const std::vector<double> ts = {20.0, 45.0, 70.0, 95.0, 110.0};
  const auto scalar = scalar_chain<models::TagsModel>(reduced_model(), ts);
  const std::uint64_t batches = dense_lu_batches();
  const auto batched = batch_solve<models::TagsModel>(reduced_model(), ts);
  expect_dense_lu_batched(batches);
  expect_results_identical(scalar, batched);
  for (std::size_t b = 0; b < batched.size(); ++b) {
    EXPECT_EQ(batched[b].method_used, ctmc::SteadyStateMethod::kDenseLu) << "lane " << b;
    EXPECT_EQ(batched[b].attempts.size(), 1u) << "lane " << b;
    EXPECT_TRUE(batched[b].converged) << "lane " << b;
    EXPECT_TRUE(batched[b].certificate.ok()) << "lane " << b;
  }
}

TEST(SweepBatch, DenseLuBatchBitIdentical) {
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kDenseLu;
  const std::vector<double> ts = {15.0, 40.0, 65.0, 90.0};
  const auto scalar =
      scalar_chain<models::TagsModel>(reduced_model(), ts, opts);
  const auto batched = batch_solve<models::TagsModel>(reduced_model(), ts, opts);
  expect_results_identical(scalar, batched);
  for (const auto& r : batched) {
    EXPECT_EQ(r.method_used, ctmc::SteadyStateMethod::kDenseLu);
  }
}

TEST(SweepBatch, IterativeFallbackMatchesScalarSequence) {
  // An iterative method has no batched kernel: steady_state_batch must
  // reproduce the scalar warm-start chain exactly (same guesses, same
  // iteration counts), not just within tolerance.
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const std::vector<double> ts = {25.0, 50.0, 75.0};
  const auto scalar =
      scalar_chain<models::TagsModel>(reduced_model(), ts, opts);
  const auto batched = batch_solve<models::TagsModel>(reduced_model(), ts, opts);
  expect_results_identical(scalar, batched);
}

TEST(SweepBatch, BatchedLuMatchesScalarFactorization) {
  constexpr std::size_t m = 7;
  constexpr std::size_t w = 3;
  constexpr std::size_t singular_lane = 1;
  // Deterministic, diagonally dominant per lane; lane 1 is all-zero so it
  // hits an exactly-zero pivot immediately and must not disturb the others.
  const auto entry = [](std::size_t i, std::size_t j, std::size_t b) {
    if (b == singular_lane) return 0.0;
    const double off = static_cast<double>((i * 7 + j * 3 + b * 11) % 13) - 6.0;
    return i == j ? 50.0 + static_cast<double>(b) : off;
  };
  linalg::BatchLuFactorization bf;
  bf.factor(m, w, entry);
  EXPECT_TRUE(bf.singular(singular_lane));
  EXPECT_TRUE(bf.any_singular());

  std::vector<double> rhs(m);
  for (std::size_t i = 0; i < m; ++i) rhs[i] = static_cast<double>(i) + 1.0;

  for (const std::size_t b : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("lane " + std::to_string(b));
    EXPECT_FALSE(bf.singular(b));
    linalg::DenseMatrix a(m, m);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) a(i, j) = entry(i, j, b);
    const linalg::LuFactorization scalar = linalg::lu_factor(a);

    // extract_lane hands back the scalar object bit for bit.
    const linalg::LuFactorization lane = bf.extract_lane(b);
    EXPECT_TRUE(same_bits(scalar.solve(rhs), lane.solve(rhs)));
    EXPECT_TRUE(same_bits(scalar.solve_transpose(rhs), lane.solve_transpose(rhs)));
  }
}

TEST(SweepBatch, OptimizerScanIdenticalAcrossBatchWidths) {
  const auto p = reduced_model();
  const auto scalar =
      approx::optimise_tags_t_integer(p, approx::Objective::kMinQueueLength, 10, 40, 1);
  for (const std::size_t batch : {std::size_t{4}, std::size_t{5}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::uint64_t batches = dense_lu_batches();
    const auto batched = approx::optimise_tags_t_integer(
        p, approx::Objective::kMinQueueLength, 10, 40, batch);
    expect_dense_lu_batched(batches);
    EXPECT_EQ(scalar.t, batched.t);
    EXPECT_EQ(scalar.solves, batched.solves);
    EXPECT_EQ(std::memcmp(&scalar.metrics, &batched.metrics, sizeof scalar.metrics), 0);
  }
}

TEST(SweepBatch, CoarseOptimizerIdenticalAcrossBatchWidths) {
  const auto p = reduced_h2_model();
  const auto scalar = approx::optimise_tags_h2_t_coarse(
      p, approx::Objective::kMinResponseTime, 4, 60, 6, 1);
  const std::uint64_t batches = dense_lu_batches();
  const auto batched = approx::optimise_tags_h2_t_coarse(
      p, approx::Objective::kMinResponseTime, 4, 60, 6, 7);
  expect_dense_lu_batched(batches);
  EXPECT_EQ(scalar.t, batched.t);
  EXPECT_EQ(scalar.solves, batched.solves);
  EXPECT_EQ(std::memcmp(&scalar.metrics, &batched.metrics, sizeof scalar.metrics), 0);
}

TEST(SweepBatch, JournalReplayAcrossBatchWidths) {
  // Batch width stays out of the sweep digest: a journal written at one
  // width must replay byte-identically at another, in both directions.
  const auto round = [&](const std::string& tag, std::size_t write_batch,
                         std::size_t replay_batch) {
    SCOPED_TRACE(tag);
    const auto dir = fresh_dir(tag);
    core::SweepStats write_stats;
    std::vector<models::Metrics> written;
    const std::uint64_t batches = dense_lu_batches();
    {
      store::SolveStore store(dir);
      written = core::tags_t_sweep(
          reduced_model(), grid(),
          {.threads = 1, .shard_size = 3, .batch = write_batch}, &write_stats,
          &store);
    }
    if (write_batch > 1) expect_dense_lu_batched(batches);
    EXPECT_EQ(write_stats.resumed, 0u);
    core::SweepStats replay_stats;
    std::vector<models::Metrics> replayed;
    {
      store::SolveStore store(dir);
      replayed = core::tags_t_sweep(
          reduced_model(), grid(),
          {.threads = 1, .shard_size = 3, .batch = replay_batch}, &replay_stats,
          &store);
    }
    EXPECT_TRUE(same_bytes(written, replayed));
    EXPECT_EQ(replay_stats.resumed, replay_stats.shards);
    expect_counters_equal(write_stats, replay_stats);
  };
  round("w1_r7", 1, 7);
  round("w7_r1", 7, 1);
}

}  // namespace
