// End-to-end certification of the steady-state stack: every method stamps
// a certificate, the kAuto chain escalates on certification failure (not
// just raw residual), poisoned generators cannot produce a certified
// result, and warm-start bookkeeping surfaces uncertified accepts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/builder.hpp"
#include "ctmc/steady_state.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;
using ctmc::SteadyStateMethod;
using ctmc::SteadyStateOptions;

ctmc::Ctmc ring_chain() {
  ctmc::CtmcBuilder b;
  b.add(0, 1, 1.0);
  b.add(1, 2, 2.0);
  b.add(2, 3, 3.0);
  b.add(3, 0, 4.0);
  return b.build();
}

class CertifiedMethods : public ::testing::TestWithParam<SteadyStateMethod> {};

TEST_P(CertifiedMethods, HealthyChainCertifies) {
  const auto chain = ring_chain();
  SteadyStateOptions opts;
  opts.method = GetParam();
  const auto res = ctmc::steady_state(chain, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();
  EXPECT_TRUE(res.certificate.finite);
  EXPECT_TRUE(res.certificate.residual_ok);
  EXPECT_TRUE(res.certificate.mass_ok);
  // Only the direct path owns a factorization to estimate condition on
  // (kAuto resolves to dense-LU for a chain this small).
  if (res.method_used == SteadyStateMethod::kDenseLu) {
    EXPECT_GT(res.certificate.condition, 1.0);
    EXPECT_TRUE(std::isfinite(res.certificate.condition));
  } else {
    EXPECT_DOUBLE_EQ(res.certificate.condition, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, CertifiedMethods,
                         ::testing::Values(SteadyStateMethod::kAuto,
                                           SteadyStateMethod::kDenseLu,
                                           SteadyStateMethod::kGaussSeidel,
                                           SteadyStateMethod::kPower));

TEST(Certification, DisablingItLeavesDefaultCertificate) {
  SteadyStateOptions opts;
  opts.certify = false;
  const auto res = ctmc::steady_state(ring_chain(), opts);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.certificate.ok());  // nothing was verified — say so
  EXPECT_DOUBLE_EQ(res.certificate.condition, 0.0);
}

TEST(Certification, AutoEscalatesWhenCertificationFails) {
  // cond_1 >= 1 always, so a condition limit of 1 makes the dense-LU
  // certificate fail on any nontrivial chain while the solve itself looks
  // perfectly converged. kAuto must treat that exactly like a divergence
  // and fall through to Gauss-Seidel (whose path computes no estimate).
  SteadyStateOptions opts;
  opts.certify_opts.condition_limit = 1.0;
#if TAGS_OBS_ENABLED
  obs::Counter escalations("numerics.certify.escalations");
  const std::uint64_t before = escalations.value();
#endif
  const auto res = ctmc::steady_state(ring_chain(), opts);
  EXPECT_EQ(res.method_used, SteadyStateMethod::kGaussSeidel);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();
  ASSERT_GE(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts.front().method, SteadyStateMethod::kDenseLu);
  EXPECT_TRUE(res.attempts.front().converged);  // converged, yet rejected
#if TAGS_OBS_ENABLED
  EXPECT_GE(escalations.value(), before + 1);
#endif
}

TEST(Certification, PoisonedGeneratorNeverCertifies) {
  // A NaN rate propagates into every solve; whatever the chain returns as
  // "best attempt" must carry a failed certificate, never a clean one. It
  // also walks the whole kAuto chain, which pins where the chain ends.
  linalg::CooMatrix coo(2, 2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  coo.add(0, 1, nan);
  coo.add(0, 0, -nan);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, -1.0);
  const linalg::CsrMatrix q = linalg::CsrMatrix::from_coo(coo);
  SteadyStateOptions opts;
  opts.max_iter = 200;  // the chain cannot converge; don't burn the budget
#if TAGS_OBS_ENABLED
  obs::Counter uncertified("numerics.steady_state.uncertified_returns");
  const std::uint64_t before = uncertified.value();
  const obs::Level level = obs::level();
  auto sink = std::make_shared<obs::MemorySink>();
  obs::install_trace_sink(sink, /*sample_every=*/1);
#endif
  const auto res = ctmc::steady_state(q, opts);
  EXPECT_FALSE(res.certificate.ok());
  std::vector<std::string> tried;
  for (const auto& a : res.attempts) tried.emplace_back(ctmc::to_string(a.method));
  EXPECT_EQ(tried,
            (std::vector<std::string>{"dense-lu", "gauss-seidel", "power"}));
#if TAGS_OBS_ENABLED
  obs::clear_trace_sink();
  obs::set_level(level);
  EXPECT_GE(uncertified.value(), before + 1);
  // Each fallback names the stage that actually ran next.
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
                           {"dense-lu", "gauss-seidel"},
                           {"gauss-seidel", "power"}}));
#endif
}

#if TAGS_OBS_ENABLED
TEST(Certification, SolveRecordCarriesCertificate) {
  obs::set_level(obs::Level::kMetrics);
  obs::reset_metrics();
  SteadyStateOptions opts;
  opts.method = SteadyStateMethod::kDenseLu;
  (void)ctmc::steady_state(ring_chain(), opts);
  bool found = false;
  for (const auto& rec : obs::solve_records()) {
    if (rec.context != "steady_state") continue;
    found = true;
    EXPECT_TRUE(rec.certified);
    EXPECT_GT(rec.condition, 1.0);
  }
  EXPECT_TRUE(found);
  obs::reset_metrics();
}
#endif

TEST(Certification, WarmStartStateCountsUncertifiedAccepts) {
  ctmc::WarmStartState ws;
  const auto good = ctmc::steady_state(ring_chain(), ws.opts);
  ws.accept(good);
  EXPECT_EQ(ws.uncertified, 0u);
  ctmc::SteadyStateResult failed;  // never converged, never certified
  ws.accept(failed);
  EXPECT_EQ(ws.uncertified, 1u);
  ctmc::WarmStartState other;
  other.uncertified = 2;
  ws.merge(other);
  EXPECT_EQ(ws.uncertified, 3u);
}

}  // namespace
