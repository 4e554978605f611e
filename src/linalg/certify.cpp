#include "linalg/certify.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

#include "obs/obs.hpp"

namespace tags::linalg {

namespace {

bool all_finite(std::span<const double> x) noexcept {
  for (double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Shared epilogue: count the check and, when it failed, the failure.
void bookkeep(const Certificate& cert) {
  obs::count("numerics.certify.checks");
  if (!cert.ok()) obs::count("numerics.certify.failures");
}

}  // namespace

const char* Certificate::failed_check() const noexcept {
  if (!finite) return "finite";
  if (!residual_ok) return "residual";
  if (!mass_ok) return "mass";
  if (!condition_ok) return "condition";
  return "";
}

Certificate certify_solution(const CsrMatrix& a, std::span<const double> x,
                             std::span<const double> b, const CertifyOptions& opts,
                             double condition) {
  Certificate cert;
  cert.condition = condition;
  cert.condition_ok =
      opts.condition_limit <= 0.0 || condition == 0.0
          ? true
          : std::isfinite(condition) && condition <= opts.condition_limit;
  cert.finite = all_finite(x);
  if (cert.finite) {
    Vec scratch(x.size());
    cert.residual = a.residual_inf(x, b, scratch);
  } else {
    cert.residual = std::numeric_limits<double>::quiet_NaN();
  }
  cert.residual_ok = std::isfinite(cert.residual) && cert.residual <= opts.residual_bound;
  if (opts.check_mass) {
    cert.mass_error = std::abs(1.0 - sum_compensated(x));
    cert.mass_ok = cert.mass_error <= opts.mass_bound;
  } else {
    cert.mass_ok = true;
  }
  bookkeep(cert);
  return cert;
}

Certificate certify_distribution(std::span<const double> pi, const CertifyOptions& opts) {
  Certificate cert;
  cert.finite = all_finite(pi);
  // No linear system here: the residual check is vacuous by construction
  // (the caller bounds truncation error separately), so it passes iff the
  // entries are usable at all.
  cert.residual_ok = cert.finite;
  cert.residual = 0.0;
  cert.mass_error = cert.finite ? std::abs(1.0 - sum_compensated(pi)) : 1.0;
  cert.mass_ok = opts.check_mass ? cert.mass_error <= opts.mass_bound : true;
  bookkeep(cert);
  return cert;
}

double norm1(const DenseMatrix& a) noexcept {
  double best = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) col += std::abs(a(i, j));
    best = std::max(best, col);
  }
  return best;
}

double norm1(const CsrMatrix& a) {
  Vec col_abs(static_cast<std::size_t>(a.cols()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      col_abs[static_cast<std::size_t>(cs[k])] += std::abs(vs[k]);
    }
  }
  return nrm_inf(col_abs);
}

double inverse_norm1_estimate(const LuFactorization& f) {
  if (f.singular()) return std::numeric_limits<double>::infinity();
  const std::size_t n = f.dim();
  if (n == 0) return 0.0;

  // Hager's iteration: maximise ||A^{-1} x||_1 over the unit 1-ball. Each
  // round costs one solve with A and one with A^T; the gradient step moves
  // to the unit vector e_j of the steepest coordinate. Converges in a
  // handful of rounds; 5 is Higham's recommended cap.
  Vec x(n, 1.0 / static_cast<double>(n));
  double est = 0.0;
  std::size_t last_j = n;  // sentinel: no unit vector tried yet
  for (int round = 0; round < 5; ++round) {
    const Vec y = f.solve(x);              // y = A^{-1} x
    const double y_norm = nrm1(y);
    if (!std::isfinite(y_norm)) return std::numeric_limits<double>::infinity();
    if (y_norm <= est && round > 0) break;  // no further progress
    est = std::max(est, y_norm);
    Vec xi(n);
    for (std::size_t i = 0; i < n; ++i) {
      xi[i] = y[i] >= 0.0 ? 1.0 : -1.0;     // subgradient of ||.||_1 at y
    }
    const Vec z = f.solve_transpose(xi);    // z = A^{-T} sign(y)
    std::size_t j = 0;
    double z_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = std::abs(z[i]);
      if (v > z_max) {
        z_max = v;
        j = i;
      }
    }
    if (!std::isfinite(z_max)) return std::numeric_limits<double>::infinity();
    // Optimality test: the steepest coordinate no longer beats the current
    // point (or we are about to revisit the same unit vector).
    if (z_max <= dot(z, x) || j == last_j) break;
    x.assign(n, 0.0);
    x[j] = 1.0;
    last_j = j;
  }
  return est;
}

double condest_1(double a_norm1, const LuFactorization& f) {
  obs::count("numerics.condest.evaluations");
  return a_norm1 * inverse_norm1_estimate(f);
}

}  // namespace tags::linalg
