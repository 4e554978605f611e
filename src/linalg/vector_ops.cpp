#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tags::linalg {

double dot(std::span<const double> x, std::span<const double> y) noexcept {
  assert(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void axpy(double a, std::span<const double> x, std::span<double> y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

void scale(double a, std::span<double> x) noexcept {
  for (double& v : x) v *= a;
}

double nrm2(std::span<const double> x) noexcept {
  // Two-pass scaled norm to avoid overflow on pathological inputs.
  const double maxabs = nrm_inf(x);
  if (maxabs == 0.0) return 0.0;
  double acc = 0.0;
  for (const double v : x) {
    const double s = v / maxabs;
    acc += s * s;
  }
  return maxabs * std::sqrt(acc);
}

double nrm_inf(std::span<const double> x) noexcept {
  // NaN entries must poison the norm: std::max would silently drop them
  // (NaN comparisons are false), reporting a zero "residual" for a vector
  // of NaNs — the exact failure certification exists to catch.
  double m = 0.0;
  for (const double v : x) {
    const double a = std::abs(v);
    if (a > m || std::isnan(a)) m = a;
  }
  return m;
}

double nrm1(std::span<const double> x) noexcept {
  double acc = 0.0;
  for (const double v : x) acc += std::abs(v);
  return acc;
}

double sum(std::span<const double> x) noexcept {
  double acc = 0.0;
  for (const double v : x) acc += v;
  return acc;
}

double sum_compensated(std::span<const double> x) noexcept {
  // Neumaier's variant of Kahan summation: the correction also covers the
  // case where the incoming term is larger than the running sum.
  double acc = 0.0;
  double comp = 0.0;
  for (double v : x) {
    const double t = acc + v;
    if (std::abs(acc) >= std::abs(v)) {
      comp += (acc - t) + v;
    } else {
      comp += (v - t) + acc;
    }
    acc = t;
  }
  return acc + comp;
}

double dot_compensated(std::span<const double> x, std::span<const double> y) noexcept {
  assert(x.size() == y.size());
  double acc = 0.0;
  double comp = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i] * y[i];
    const double t = acc + v;
    if (std::abs(acc) >= std::abs(v)) {
      comp += (acc - t) + v;
    } else {
      comp += (v - t) + acc;
    }
    acc = t;
  }
  return acc + comp;
}

void set_zero(std::span<double> x) noexcept {
  std::fill(x.begin(), x.end(), 0.0);
}

void copy(std::span<const double> src, std::span<double> dst) noexcept {
  assert(src.size() == dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

double normalize_l1(std::span<double> x) noexcept {
  const double s = sum_compensated(x);
  if (s != 0.0 && std::isfinite(s)) scale(1.0 / s, x);
  return s;
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) noexcept {
  assert(x.size() == y.size());
  double m = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) m = std::max(m, std::abs(x[i] - y[i]));
  return m;
}

}  // namespace tags::linalg
