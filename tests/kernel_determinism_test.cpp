// The parallel kernel contract: thread count changes wall clock, never
// bits. Reductions combine fixed, n-dependent block partials in serial
// order and elementwise kernels have no cross-iteration state, so dot,
// norms, axpy — and every solve built on them — return byte-identical
// results at any OpenMP thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ctmc/steady_state.hpp"
#include "linalg/vector_ops.hpp"
#include "models/tags_h2.hpp"

namespace {

using namespace tags;

/// Scoped thread-count override; restores the previous max on exit so the
/// rest of the suite is unaffected.
class WithThreads {
 public:
  explicit WithThreads([[maybe_unused]] int n) {
#ifdef _OPENMP
    prev_ = omp_get_max_threads();
    omp_set_num_threads(n);
#endif
  }
  ~WithThreads() {
#ifdef _OPENMP
    omp_set_num_threads(prev_);
#endif
  }

 private:
  int prev_ = 1;
};

bool same_bytes(const linalg::Vec& a, const linalg::Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct KernelResults {
  double dot, nrm2, nrm1, sum, nrm_inf;
  linalg::Vec axpy_out;
};

KernelResults run_kernels(const linalg::Vec& x, const linalg::Vec& y) {
  KernelResults r;
  r.dot = linalg::dot(x, y);
  r.nrm2 = linalg::nrm2(x);
  r.nrm1 = linalg::nrm1(x);
  r.sum = linalg::sum(x);
  r.nrm_inf = linalg::nrm_inf(x);
  r.axpy_out = y;
  linalg::axpy(1.7, x, r.axpy_out);
  return r;
}

TEST(KernelDeterminism, ReductionsBitIdenticalAcrossThreadCounts) {
  // Well above the parallel cutoff so the blocked reductions actually run
  // their parallel path at >1 thread.
  const std::size_t n = 100000;
  std::mt19937 gen(42);
  std::uniform_real_distribution<double> val(-3.0, 3.0);
  linalg::Vec x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = val(gen);
    y[i] = val(gen);
  }

  KernelResults serial;
  {
    WithThreads one(1);
    serial = run_kernels(x, y);
  }
  for (int threads : {2, 8}) {
    WithThreads t(threads);
    const KernelResults par = run_kernels(x, y);
    // Bitwise, not within-tol: memcmp on the raw doubles.
    EXPECT_EQ(std::memcmp(&par.dot, &serial.dot, sizeof(double)), 0) << threads;
    EXPECT_EQ(std::memcmp(&par.nrm2, &serial.nrm2, sizeof(double)), 0) << threads;
    EXPECT_EQ(std::memcmp(&par.nrm1, &serial.nrm1, sizeof(double)), 0) << threads;
    EXPECT_EQ(std::memcmp(&par.sum, &serial.sum, sizeof(double)), 0) << threads;
    EXPECT_EQ(std::memcmp(&par.nrm_inf, &serial.nrm_inf, sizeof(double)), 0)
        << threads;
    EXPECT_TRUE(same_bytes(par.axpy_out, serial.axpy_out)) << threads;
  }
}

TEST(KernelDeterminism, IterativeSolveBitIdenticalAcrossThreadCounts) {
  // Full kAuto solve on the default H2 chain (12831 states — above the
  // kernel cutoff, so this exercises the parallel reductions and the
  // cached-transpose SpMV inside Gauss-Seidel; the copy keeps the chain's
  // node-2 partition, so the solve is two-level and its serial coarse
  // steps are held to the same bytes).
  const models::TagsH2Model model({});
  const linalg::CsrMatrix chain = model.chain().generator();
  ctmc::SteadyStateResult serial;
  {
    WithThreads one(1);
    serial = ctmc::steady_state(chain);
  }
  ASSERT_TRUE(serial.converged);
  EXPECT_EQ(serial.method_used, ctmc::SteadyStateMethod::kGaussSeidel);

  for (int threads : {2, 8}) {
    WithThreads t(threads);
    const auto par = ctmc::steady_state(chain);
    ASSERT_TRUE(par.converged) << threads;
    EXPECT_EQ(par.method_used, serial.method_used);
    EXPECT_EQ(par.iterations, serial.iterations) << threads;
    EXPECT_TRUE(same_bytes(par.pi, serial.pi)) << threads << " threads";
  }
}

}  // namespace
