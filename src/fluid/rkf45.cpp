// Runge-Kutta-Fehlberg 4(5) with standard coefficients and PI-free simple
// step control.
#include <cmath>

#include "fluid/ode.hpp"
#include "obs/obs.hpp"

namespace tags::fluid {

Vec rkf45_integrate(const OdeRhs& f, Vec y, double t0, double t_end,
                    const OdeOptions& opts) {
  const std::size_t n = y.size();
  Vec k1(n), k2(n), k3(n), k4(n), k5(n), k6(n), tmp(n), y4(n), y5(n);
  double t = t0;
  double h = opts.dt;

  while (t < t_end) {
    h = std::min(h, t_end - t);
    if (t + h == t) {
      // The remaining gap is below one ulp of t: t += h would not move and
      // the loop would spin forever. Within rounding, we are at t_end.
      obs::count("numerics.rkf45.stall_terminations");
      break;
    }
    f(t, y, k1);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + h * (k1[i] / 4.0);
    f(t + h / 4.0, tmp, k2);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (3.0 / 32.0 * k1[i] + 9.0 / 32.0 * k2[i]);
    }
    f(t + 3.0 * h / 8.0, tmp, k3);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (1932.0 / 2197.0 * k1[i] - 7200.0 / 2197.0 * k2[i] +
                           7296.0 / 2197.0 * k3[i]);
    }
    f(t + 12.0 * h / 13.0, tmp, k4);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (439.0 / 216.0 * k1[i] - 8.0 * k2[i] +
                           3680.0 / 513.0 * k3[i] - 845.0 / 4104.0 * k4[i]);
    }
    f(t + h, tmp, k5);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = y[i] + h * (-8.0 / 27.0 * k1[i] + 2.0 * k2[i] -
                           3544.0 / 2565.0 * k3[i] + 1859.0 / 4104.0 * k4[i] -
                           11.0 / 40.0 * k5[i]);
    }
    f(t + h / 2.0, tmp, k6);

    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      y4[i] = y[i] + h * (25.0 / 216.0 * k1[i] + 1408.0 / 2565.0 * k3[i] +
                          2197.0 / 4104.0 * k4[i] - k5[i] / 5.0);
      y5[i] = y[i] + h * (16.0 / 135.0 * k1[i] + 6656.0 / 12825.0 * k3[i] +
                          28561.0 / 56430.0 * k4[i] - 9.0 / 50.0 * k5[i] +
                          2.0 / 55.0 * k6[i]);
      const double scale = opts.abs_tol + opts.rel_tol * std::abs(y[i]);
      err = std::max(err, std::abs(y5[i] - y4[i]) / scale);
    }
    if (err <= 1.0 || h <= opts.min_dt) {
      if (err > 1.0) {
        // Forced acceptance at the step floor: error control is lost for
        // this step. Count it so a stiff run that rode min_dt the whole way
        // is distinguishable from one the controller actually resolved.
        obs::count("numerics.rkf45.forced_min_dt_steps");
      }
      t += h;
      y = y5;  // local extrapolation
    }
    const double factor =
        err > 0.0 ? 0.9 * std::pow(err, -0.2) : 4.0;  // grow on tiny error
    h = std::clamp(h * std::clamp(factor, 0.2, 4.0), opts.min_dt, opts.max_dt);
  }
  return y;
}

}  // namespace tags::fluid
