// End-to-end certification of the steady-state stack: every method stamps
// a certificate, the kAuto chain escalates on certification failure (not
// just raw residual), poisoned generators cannot produce a certified
// result, and warm-start bookkeeping surfaces uncertified accepts. Each
// kAuto attempt span says why a stage was declined: converged 0 is a
// residual failure, converged 1 with certified 0 a certification
// escalation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
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

/// A numeric attribute of a span record; NaN when the span lacks it.
double span_attr(const obs::SpanRecord& rec, std::string_view key) {
  for (const auto& [k, v] : rec.num) {
    if (k == key) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// The attempt spans (solve/dense-lu, solve/gauss-seidel, solve/power) in
/// start order: every solve/* span but certification and coarse steps.
std::vector<obs::SpanRecord> attempt_spans() {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& r : obs::span_records_export()) {
    if (r.name.rfind("solve/", 0) == 0 && r.name != "solve/certify" &&
        r.name != "solve/coarse-step") {
      out.push_back(r);
    }
  }
  return out;
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
  obs::set_level(obs::Level::kMetrics);
  obs::reset_metrics();
  obs::Counter escalations("numerics.certify.escalations");
  const auto res = ctmc::steady_state(ring_chain(), opts);
  EXPECT_EQ(res.method_used, SteadyStateMethod::kGaussSeidel);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.failed_check();
  ASSERT_GE(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts.front().method, SteadyStateMethod::kDenseLu);
  EXPECT_TRUE(res.attempts.front().converged);  // converged, yet rejected
  EXPECT_EQ(escalations.value(), 1u);
  // The spans say the same: the declined dense-LU attempt converged but
  // was not certified, and the accepted Gauss-Seidel one was.
  const std::vector<obs::SpanRecord> spans = attempt_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "solve/dense-lu");
  EXPECT_EQ(span_attr(spans[0], "converged"), 1.0);
  EXPECT_EQ(span_attr(spans[0], "certified"), 0.0);
  EXPECT_EQ(spans[1].name, "solve/gauss-seidel");
  EXPECT_EQ(span_attr(spans[1], "certified"), 1.0);
  obs::reset_metrics();
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
  obs::set_level(obs::Level::kMetrics);
  obs::reset_metrics();
  obs::Counter uncertified("numerics.steady_state.uncertified_returns");
  obs::Counter fallbacks("ctmc.steady_state.fallbacks");
  const auto res = ctmc::steady_state(q, opts);
  EXPECT_FALSE(res.certificate.ok());
  std::vector<std::string> tried;
  for (const auto& a : res.attempts) tried.emplace_back(ctmc::to_string(a.method));
  EXPECT_EQ(tried,
            (std::vector<std::string>{"dense-lu", "gauss-seidel", "power"}));
  EXPECT_EQ(uncertified.value(), 1u);
  // One fallback per declined stage that had a successor, and one attempt
  // span per stage, none of them certified.
  EXPECT_EQ(fallbacks.value(), 2u);
  std::vector<std::string> spans;
  for (const obs::SpanRecord& r : attempt_spans()) {
    spans.push_back(r.name);
    EXPECT_EQ(span_attr(r, "certified"), 0.0) << r.name;
  }
  EXPECT_EQ(spans, (std::vector<std::string>{"solve/dense-lu", "solve/gauss-seidel",
                                             "solve/power"}));
  obs::reset_metrics();
}

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
