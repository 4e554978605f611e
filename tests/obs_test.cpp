// Observability layer: level parsing, histogram percentiles, lock-free
// counters under concurrent increments, per-span-name timer attribution,
// and the extended SolveResult / steady-state attempt reporting.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "ctmc/builder.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/solver.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;

linalg::CsrMatrix diag_dominant(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  linalg::CooMatrix coo(static_cast<linalg::index_t>(n),
                        static_cast<linalg::index_t>(n));
  linalg::Vec row_abs(n, 0.0);
  for (std::size_t e = 0; e < 4 * n; ++e) {
    const auto i = pick(gen);
    const auto j = pick(gen);
    if (i == j) continue;
    const double v = dist(gen);
    coo.add(static_cast<linalg::index_t>(i), static_cast<linalg::index_t>(j), v);
    row_abs[i] += std::abs(v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(static_cast<linalg::index_t>(i), static_cast<linalg::index_t>(i),
            row_abs[i] + 1.0);
  }
  return linalg::CsrMatrix::from_coo(coo);
}

ctmc::Ctmc small_chain() {
  ctmc::CtmcBuilder b;
  b.add(0, 1, 2.0, "go");
  b.add(1, 2, 1.5, "go");
  b.add(2, 0, 3.0, "back");
  return b.build();
}

// Global-state hygiene: every test starts at level metrics with empty
// aggregates, and leaves the same state behind.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_level(obs::Level::kMetrics);
    obs::reset_metrics();
  }
  void TearDown() override {
    obs::set_level(obs::Level::kMetrics);
    obs::reset_metrics();
  }
};

// TAGS_OBS_LEVEL and both tools' --obs-level read levels through
// parse_level: the two names and any whole integer (<= 0 off, >= 1
// metrics, so a leftover "2" still records); other text is rejected, and
// the environment then keeps the default.
TEST_F(ObsTest, ParseLevelAcceptsNamesAndIntegers) {
  using obs::Level;
  EXPECT_EQ(obs::parse_level("off"), Level::kOff);
  EXPECT_EQ(obs::parse_level("metrics"), Level::kMetrics);
  EXPECT_EQ(obs::parse_level("0"), Level::kOff);
  EXPECT_EQ(obs::parse_level("1"), Level::kMetrics);
  EXPECT_EQ(obs::parse_level("2"), Level::kMetrics);
  EXPECT_EQ(obs::parse_level("-1"), Level::kOff);
  EXPECT_EQ(obs::parse_level(""), std::nullopt);
  EXPECT_EQ(obs::parse_level("garbage"), std::nullopt);
  EXPECT_EQ(obs::parse_level("1x"), std::nullopt);

  const auto env_level = [](const char* text) {
    EXPECT_EQ(setenv("TAGS_OBS_LEVEL", text, 1), 0);
    return static_cast<Level>(obs::detail::init_level_from_env());
  };
  EXPECT_EQ(env_level("off"), Level::kOff);
  EXPECT_EQ(env_level("2"), Level::kMetrics);
  EXPECT_EQ(env_level("0"), Level::kOff);
  EXPECT_EQ(env_level("garbage"), Level::kMetrics);
  EXPECT_EQ(env_level("trace"), Level::kMetrics);
  EXPECT_EQ(unsetenv("TAGS_OBS_LEVEL"), 0);
  EXPECT_EQ(static_cast<Level>(obs::detail::init_level_from_env()), Level::kMetrics);
}

TEST_F(ObsTest, HistogramCountAndSum) {
  obs::Histogram h("test.hist.count_sum", obs::Histogram::linear_bounds(0.0, 10.0, 10));
  for (int i = 1; i <= 10; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.0);
}

TEST_F(ObsTest, HistogramPercentilesInterpolate) {
  // 1000 uniform samples over (0, 100] into 100 equal buckets: percentiles
  // should land within one bucket width of the exact value.
  obs::Histogram h("test.hist.uniform", obs::Histogram::linear_bounds(0.0, 100.0, 100));
  for (int i = 1; i <= 1000; ++i) h.observe(i * 0.1);
  EXPECT_NEAR(h.percentile(50.0), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(90.0), 90.0, 1.0);
  EXPECT_NEAR(h.percentile(99.0), 99.0, 1.0);
  EXPECT_NEAR(h.percentile(0.0), 0.1, 1.0);
  EXPECT_NEAR(h.percentile(100.0), 100.0, 1.0);
}

TEST_F(ObsTest, HistogramOverflowBucketReportsLowerEdge) {
  obs::Histogram h("test.hist.overflow", obs::Histogram::linear_bounds(0.0, 10.0, 10));
  for (int i = 0; i < 5; ++i) h.observe(1e6);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 10.0);
}

TEST_F(ObsTest, CounterExactUnderConcurrentIncrements) {
  obs::Counter c("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      obs::Counter mine("test.counter.concurrent");
      for (std::uint64_t i = 0; i < kPerThread; ++i) mine.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, SameNameSharesOneCounter) {
  obs::Counter a("test.counter.shared");
  obs::Counter b("test.counter.shared");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST_F(ObsTest, NestedTimersAttributeSelfTime) {
  using namespace std::chrono_literals;
  {
    const obs::Span outer("obs_test/outer");
    std::this_thread::sleep_for(20ms);
    {
      const obs::Span inner("obs_test/inner");
      std::this_thread::sleep_for(20ms);
    }
  }
  // Timers are keyed by span name, not by the nesting path.
  const auto stats = obs::span_stats();
  const auto outer_it = stats.find("obs_test/outer");
  const auto inner_it = stats.find("obs_test/inner");
  ASSERT_NE(outer_it, stats.end());
  ASSERT_NE(inner_it, stats.end());
  EXPECT_EQ(outer_it->second.count, 1u);
  EXPECT_EQ(inner_it->second.count, 1u);
  // outer.total covers both sleeps; outer.self excludes the inner scope.
  EXPECT_GE(outer_it->second.total_ns,
            inner_it->second.total_ns + outer_it->second.self_ns);
  EXPECT_GE(outer_it->second.total_ns, 40u * 1000 * 1000);
  EXPECT_LT(outer_it->second.self_ns, outer_it->second.total_ns);
  EXPECT_EQ(inner_it->second.total_ns, inner_it->second.self_ns);
}

TEST_F(ObsTest, TimersInactiveWhenLevelOff) {
  obs::set_level(obs::Level::kOff);
  {
    const obs::Span span("obs_test/should_not_appear");
  }
  obs::set_level(obs::Level::kMetrics);
  EXPECT_EQ(obs::span_stats().count("obs_test/should_not_appear"), 0u);
}

TEST_F(ObsTest, SolveRecordsCaptureLinearSolves) {
  const auto a = diag_dominant(32, 3);
  linalg::Vec b(32, 1.0), x(32, 0.0);
  const auto r = linalg::gauss_seidel(a, b, x, {});
  ASSERT_TRUE(r.converged);
  const auto records = obs::solve_records();
  ASSERT_FALSE(records.empty());
  const auto& rec = records.back();
  EXPECT_EQ(rec.context, "linear");
  EXPECT_EQ(rec.method, "gauss-seidel");
  EXPECT_EQ(rec.n, 32);
  EXPECT_TRUE(rec.converged);
  EXPECT_FALSE(rec.diverged);
  EXPECT_GE(rec.wall_ms, 0.0);
}

TEST_F(ObsTest, MetricsJsonIsWellFormedEnough) {
  obs::count("test.json.counter", 42);
  obs::gauge_set("test.json.gauge", 2.5);
  const std::string json = obs::metrics_json("obs_test");
  EXPECT_NE(json.find("\"id\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":6"), std::string::npos);
  EXPECT_NE(json.find("test.json.counter"), std::string::npos);
  EXPECT_NE(json.find("\"store\":{"), std::string::npos);
  EXPECT_EQ(json.find("\"ncd\":{"), std::string::npos);  // dropped in v6
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// The extended SolveResult fields and the steady-state attempt chain are
// computed at every observability level.

TEST(SolveResultExtensions, RelativeResidualScalesWithB) {
  const auto a = diag_dominant(48, 21);
  linalg::Vec x_true(48, 2.0), b(48);
  a.multiply(x_true, b);
  linalg::Vec x(48, 0.0);
  linalg::SolveOptions opts;
  opts.tol = 1e-10;
  const auto r = linalg::gauss_seidel(a, b, x, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.diverged);
  const double b_norm = linalg::nrm_inf(b);
  ASSERT_GT(b_norm, 0.0);
  EXPECT_NEAR(r.final_relative_residual, r.residual / b_norm, 1e-18);
  EXPECT_LE(r.final_relative_residual, r.residual / b_norm + 1e-18);
}

TEST(SolveResultExtensions, DivergenceFlaggedOnBlowup) {
  // Gauss-Seidel diverges when the iteration matrix has spectral radius
  // > 1: strong off-diagonal coupling does it (here the radius is 9).
  linalg::CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 3.0);
  coo.add(1, 0, 3.0);
  coo.add(1, 1, 1.0);
  const auto a = linalg::CsrMatrix::from_coo(coo);
  linalg::Vec b{1.0, 1.0};
  linalg::Vec x{5.0, -5.0};
  linalg::SolveOptions opts;
  opts.max_iter = 200;
  const auto r = linalg::gauss_seidel(a, b, x, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.diverged);
}

TEST(SolveResultExtensions, StagnationIsNotDivergence) {
  const auto a = diag_dominant(32, 5);
  linalg::Vec b(32, 1.0), x(32, 0.0);
  linalg::SolveOptions opts;
  opts.max_iter = 1;  // stop long before convergence
  opts.tol = 1e-14;
  const auto r = linalg::gauss_seidel(a, b, x, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.diverged);
}

TEST(SteadyStateAttempts, SingleMethodRecordsOneAttempt) {
  ctmc::SteadyStateOptions opts;
  opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
  const auto r = ctmc::steady_state(small_chain(), opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts.back().method, r.method_used);
  EXPECT_TRUE(r.attempts.back().converged);
  EXPECT_EQ(r.attempts.back().iterations, r.iterations);
}

TEST(SteadyStateAttempts, AutoRecordsChainEndingInMethodUsed) {
  const auto r = ctmc::steady_state(small_chain());
  ASSERT_TRUE(r.converged);
  ASSERT_FALSE(r.attempts.empty());
  EXPECT_EQ(r.attempts.back().method, r.method_used);
  EXPECT_TRUE(r.attempts.back().converged);
  for (std::size_t i = 0; i + 1 < r.attempts.size(); ++i) {
    EXPECT_FALSE(r.attempts[i].converged);
  }
}

}  // namespace
