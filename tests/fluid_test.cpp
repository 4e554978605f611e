// ODE integrators and the fluid TAGS approximation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "fluid/fluid_tags.hpp"
#include "fluid/ode.hpp"
#include "models/tags.hpp"
#include "obs/obs.hpp"

namespace {

using namespace tags;
using namespace tags::fluid;

TEST(Rk4, ExponentialDecay) {
  const OdeRhs f = [](double, const Vec& y, Vec& dy) { dy[0] = -2.0 * y[0]; };
  const Vec y = rk4_integrate(f, {1.0}, 0.0, 1.0, {.dt = 1e-3});
  EXPECT_NEAR(y[0], std::exp(-2.0), 1e-9);
}

TEST(Rk4, HarmonicOscillatorEnergyConserved) {
  const OdeRhs f = [](double, const Vec& y, Vec& dy) {
    dy[0] = y[1];
    dy[1] = -y[0];
  };
  const Vec y = rk4_integrate(f, {1.0, 0.0}, 0.0, 2.0 * M_PI, {.dt = 1e-3});
  EXPECT_NEAR(y[0], 1.0, 1e-8);
  EXPECT_NEAR(y[1], 0.0, 1e-8);
}

TEST(Rk4, TrajectorySamplesMatchDirectIntegration) {
  const OdeRhs f = [](double, const Vec& y, Vec& dy) { dy[0] = -y[0]; };
  const auto traj = rk4_trajectory(f, {2.0}, 0.0, {0.5, 1.0, 2.0});
  ASSERT_EQ(traj.size(), 3u);
  EXPECT_NEAR(traj[0][0], 2.0 * std::exp(-0.5), 1e-8);
  EXPECT_NEAR(traj[2][0], 2.0 * std::exp(-2.0), 1e-8);
}

TEST(Rkf45, MatchesClosedFormWithLooseSteps) {
  const OdeRhs f = [](double t, const Vec&, Vec& dy) { dy[0] = std::cos(t); };
  const Vec y = rkf45_integrate(f, {0.0}, 0.0, 3.0, {.dt = 0.1});
  EXPECT_NEAR(y[0], std::sin(3.0), 1e-6);
}

TEST(Rkf45, StiffDecayStaysStable) {
  const OdeRhs f = [](double, const Vec& y, Vec& dy) { dy[0] = -500.0 * y[0]; };
  const Vec y = rkf45_integrate(f, {1.0}, 0.0, 1.0, {.dt = 0.01});
  EXPECT_NEAR(y[0], 0.0, 1e-6);
}

TEST(SteadyOde, RelaxationFindsFixedPoint) {
  const OdeRhs f = [](double, const Vec& y, Vec& dy) { dy[0] = 3.0 - y[0]; };
  const auto ss = integrate_to_steady(f, {0.0});
  EXPECT_TRUE(ss.converged);
  EXPECT_NEAR(ss.y[0], 3.0, 1e-7);
}

TEST(FluidTags, MassInvariantsConserved) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = 50.0;
  p.n = 6;
  const OdeRhs rhs = make_tags_fluid_rhs(p);
  Vec y = tags_fluid_initial(p);
  y = rk4_integrate(rhs, std::move(y), 0.0, 10.0, {.dt = 1e-3});
  double tau_sum = 0.0;
  for (unsigned j = 0; j <= p.n; ++j) tau_sum += y[1 + j];
  EXPECT_NEAR(tau_sum, 1.0, 1e-7);
  double head_sum = y[2 * p.n + 4];
  for (unsigned j = 0; j <= p.n; ++j) head_sum += y[p.n + 3 + j];
  EXPECT_NEAR(head_sum, 1.0, 1e-7);
  EXPECT_GE(y[0], 0.0);
  EXPECT_LE(y[0], p.k1 + 1e-9);
}

TEST(FluidTags, SteadyStateNearCtmcAtModerateLoad) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = 50.0;
  p.n = 6;
  p.k1 = p.k2 = 10;
  const auto fluid = tags_fluid_steady(p);
  EXPECT_TRUE(fluid.converged);
  const auto exact = models::TagsModel(p).metrics();
  // Mean-field closure error: accept a generous band but require the right
  // scale and ordering.
  EXPECT_NEAR(fluid.mean_q1, exact.mean_q1, 0.5 * exact.mean_q1 + 0.15);
  EXPECT_NEAR(fluid.mean_q2, exact.mean_q2, 0.5 * exact.mean_q2 + 0.15);
}

TEST(FluidTags, TransientStartsEmptyAndSettles) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = 50.0;
  p.n = 4;
  const auto traj = tags_fluid_transient(p, {0.0, 0.5, 2.0, 50.0});
  ASSERT_EQ(traj.size(), 4u);
  EXPECT_NEAR(traj[0].first, 0.0, 1e-12);
  EXPECT_GT(traj[1].first, 0.0);  // fills up from empty
  // The trajectory may overshoot, but by t = 50 it must sit at the fixed
  // point found by the steady-state integrator.
  const auto fixed = tags_fluid_steady(p);
  EXPECT_NEAR(traj[3].first, fixed.mean_q1, 1e-3);
  EXPECT_NEAR(traj[3].second, fixed.mean_q2, 1e-3);
}

TEST(FluidTags, HighLoadSaturatesBelowBuffers) {
  models::TagsParams p;
  p.lambda = 40.0;  // way above capacity
  p.mu = 10.0;
  p.t = 50.0;
  p.n = 4;
  p.k1 = 6;
  p.k2 = 6;
  const auto fluid = tags_fluid_steady(p);
  EXPECT_LE(fluid.mean_q1, p.k1 + 1e-6);
  EXPECT_GE(fluid.mean_q1, 0.8 * p.k1);  // node 1 should be nearly full
}

// Regression: when t_end - t is below one ulp of t, t += h is a no-op and
// the stepper used to spin forever. At t ~ 1e16 the ulp is 2.0, so no step
// the controller can take (max_dt = 1.0 here) ever advances t.
TEST(Rkf45, TerminatesWhenStepFallsBelowUlpOfT) {
  const OdeRhs f = [](double, const Vec& y, Vec& dy) { dy[0] = -y[0]; };
  tags::obs::Counter stalls("numerics.rkf45.stall_terminations");
  const std::uint64_t before = stalls.value();
  const double t0 = 1e16;
  const double t_end = std::nextafter(std::nextafter(t0, 2e16), 2e16);
  ASSERT_GT(t_end, t0);  // a real, positive gap — just unreachable by stepping
  const Vec y = rkf45_integrate(f, {1.0}, t0, t_end, {.dt = 0.5});
  EXPECT_TRUE(std::isfinite(y[0]));
  EXPECT_GE(stalls.value(), before + 1);
}

// Forced acceptance at the min_dt floor loses error control; every such
// step must be counted so stiff runs are auditable after the fact.
TEST(Rkf45, CountsForcedMinDtStepsWithErrorAboveOne) {
  const OdeRhs f = [](double, const Vec& y, Vec& dy) { dy[0] = -1e6 * y[0]; };
  tags::obs::Counter forced("numerics.rkf45.forced_min_dt_steps");
  const std::uint64_t before = forced.value();
  OdeOptions opts;
  opts.dt = 0.1;
  opts.min_dt = 0.1;  // far too coarse for the stiffness: err > 1 every step
  opts.max_dt = 0.1;
  const Vec y = rkf45_integrate(f, {1.0}, 0.0, 0.5, opts);
  (void)y;  // the trajectory is garbage by construction; the count is the point
  EXPECT_GE(forced.value(), before + 1);
}

}  // namespace
