// Steady-state solver comparison on real TAGS chains of growing size,
// plus the NCD fast-path report.
//
// Like micro_sweep this binary has its own main: before the
// google-benchmark suite it solves a rare-timeout square chain (k1=k2=10,
// t=0.4) twice — through kAuto, which lands on NCD aggregation-
// disaggregation, and with the NCD gate off (Gauss-Seidel) — and records
// the speedup, certification verdicts, the coupling gate's verdict on the
// strongly-coupled square chain at t=50, transpose-cache traffic, and a
// thread-count determinism cross-check into gauges written to
// results/micro_solvers_telemetry.json (pinned by the ctest fixture via
// tools/check_bench_json.py --require gauges.NAME). `--solvers-report-only`
// skips the google-benchmark suite.
//
// Findings (visible in the report): the short cutoff makes host-2 re-runs
// rare, the chain falls apart into ~70 weakly-coupled blocks, and the
// certified NCD solver beats the Gauss-Seidel fallback by about 3x. On the
// strongly-coupled square chain the coupling gate declines ("one-block")
// and kAuto stays bit-identical to the chain with NCD off.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_util.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/ncd.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"

namespace {

using namespace tags;
using clock_type = std::chrono::steady_clock;

models::TagsParams sized_params(unsigned k) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = 50.0;
  p.n = 6;
  p.k1 = p.k2 = k;
  return p;
}

models::TagsParams rare_timeout_params() {
  // fig06-shaped point with a short cutoff: timeouts (and thus host-2
  // traffic) are rare, so the chain decomposes into weakly-coupled blocks
  // — the regime the NCD aggregation-disaggregation solver targets.
  auto p = sized_params(10);
  p.t = 0.4;
  return p;
}

double time_solve_ms(const linalg::CsrMatrix& q, const ctmc::SteadyStateOptions& opts,
                     ctmc::SteadyStateResult& out) {
  // Best of three: the first solve also pays the transpose-cache build and
  // allocator warmup, which is real but not what the comparison measures.
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock_type::now();
    auto r = ctmc::steady_state(q, opts);
    const double ms =
        std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
    if (rep == 0 || ms < best) best = ms;
    out = std::move(r);
  }
  return best;
}

struct NcdComparison {
  double speedup = 0.0;
  bool ncd_used = false;
  bool certified = false;
  double max_diff = 0.0;
};

/// NCD aggregation-disaggregation (via kAuto, whose first stage it is) vs
/// the same chain with the NCD gate forced off (Gauss-Seidel fallback).
NcdComparison compare_ncd_path(const char* label, const linalg::CsrMatrix& q) {
  ctmc::SteadyStateResult ncd, generic;
  const double ncd_ms = time_solve_ms(q, {}, ncd);
  ctmc::SteadyStateOptions off;
  off.ncd = false;
  const double generic_ms = time_solve_ms(q, off, generic);

  NcdComparison c;
  c.ncd_used = ncd.method_used == ctmc::SteadyStateMethod::kNcdAd;
  c.certified = ncd.certificate.ok() && generic.certificate.ok();
  c.speedup = ncd_ms > 0.0 ? generic_ms / ncd_ms : 0.0;
  if (ncd.converged && generic.converged) {
    c.max_diff = linalg::max_abs_diff(ncd.pi, generic.pi);
  }
  const auto part = linalg::detect_ncd(q);
  std::printf("%-24s n=%6lld blocks=%4lld coupling=%.3f: ncd(%s) %8.2f ms, "
              "generic(%s) %8.2f ms, speedup %.2fx, certified %s, "
              "max|dpi|=%.1e\n",
              label, static_cast<long long>(q.rows()),
              static_cast<long long>(part.n_blocks()), part.coupling,
              std::string(ctmc::to_string(ncd.method_used)).c_str(), ncd_ms,
              std::string(ctmc::to_string(generic.method_used)).c_str(),
              generic_ms, c.speedup, c.certified ? "yes" : "NO", c.max_diff);
  return c;
}

/// Same chain solved at 1 and 2 OpenMP threads must be byte-identical —
/// the parallel-kernel determinism contract, checked on the real solver.
bool thread_determinism_check(const linalg::CsrMatrix& q) {
#ifdef _OPENMP
  const int prev = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const auto serial = ctmc::steady_state(q, {});
#ifdef _OPENMP
  omp_set_num_threads(2);
#endif
  const auto parallel = ctmc::steady_state(q, {});
#ifdef _OPENMP
  omp_set_num_threads(prev);
#endif
  const bool identical =
      serial.pi.size() == parallel.pi.size() &&
      std::memcmp(serial.pi.data(), parallel.pi.data(),
                  serial.pi.size() * sizeof(double)) == 0;
  std::printf("1-thread vs 2-thread pi bit-identical: %s\n",
              identical ? "yes" : "NO");
  return identical;
}

int run_solvers_report() {
  // A deep chain from the paper's sweeps pushed to its largest size (fig06
  // shape: deep K1, shallow K2), large enough that the parallel SpMV and
  // vector kernels engage, for the thread-count determinism check.
  models::TagsParams tp;
  tp.k1 = 256;
  tp.k2 = 2;
  const models::TagsModel deep_model(tp);

#if TAGS_OBS_ENABLED
  obs::Counter cache_hits("numerics.transpose_cache.hits");
  obs::Counter cache_misses("numerics.transpose_cache.misses");
  const std::uint64_t hits_before = cache_hits.value();
  const std::uint64_t misses_before = cache_misses.value();
#endif

  // The strongly-coupled square chain: the NCD detector collapses it to
  // one block and kAuto must stay on the generic chain.
  const models::TagsModel square_model(sized_params(10));
  ctmc::SteadyStateResult square;
  (void)time_solve_ms(square_model.chain().generator(), {}, square);
  const bool ncd_declined_square =
      square.method_used != ctmc::SteadyStateMethod::kNcdAd;
  std::printf("%-24s n=%6lld: NCD gate declines, %s used: %s\n",
              "tags k=10 (square)",
              static_cast<long long>(square_model.n_states()),
              std::string(ctmc::to_string(square.method_used)).c_str(),
              ncd_declined_square ? "yes" : "NO");

  // The rare-timeout chain: the NCD coupling gate accepts and the
  // multilevel solver carries the solve.
  const models::TagsModel rare_model(rare_timeout_params());
  const auto ncd_cmp =
      compare_ncd_path("tags k=10 t=0.4 (rare)", rare_model.chain().generator());

#if TAGS_OBS_ENABLED
  const double hit_delta = static_cast<double>(cache_hits.value() - hits_before);
  const double miss_delta =
      static_cast<double>(cache_misses.value() - misses_before);
#else
  const double hit_delta = 0.0, miss_delta = 0.0;
#endif
  std::printf("transpose cache during report: %g hits, %g builds\n", hit_delta,
              miss_delta);

  const bool identical = thread_determinism_check(deep_model.chain().generator());
  const bool all_certified = ncd_cmp.certified && square.certificate.ok();

  obs::gauge_set("bench.micro_solvers.all_solves_certified",
                 all_certified ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_solvers.parallel_identical", identical ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_solvers.transpose_cache_hits", hit_delta);
  obs::gauge_set("bench.micro_solvers.transpose_cache_misses", miss_delta);
  obs::gauge_set("bench.micro_solvers.ncd_solver_used",
                 ncd_cmp.ncd_used ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_solvers.ncd_certified",
                 ncd_cmp.certified ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_solvers.ncd_speedup", ncd_cmp.speedup);
  obs::gauge_set("bench.micro_solvers.ncd_declined_square",
                 ncd_declined_square ? 1.0 : 0.0);
  tags::bench::emit_telemetry("micro_solvers");
  // The measured speedup is gated by bench_compare.py against the
  // baselines (machine-relative); here only the invariants fail the run.
  const bool ncd_ok = ncd_cmp.ncd_used && ncd_cmp.certified && ncd_declined_square;
  return all_certified && identical && ncd_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// google-benchmark solver curves
// ---------------------------------------------------------------------------
//
// Gauss-Seidel sweeps are the dependable iterative workhorse for these
// balance systems (consistent with the CTMC literature); dense LU is the
// direct solve kAuto runs on chains of at most 1200 states.

void run_method(benchmark::State& state, ctmc::SteadyStateMethod method,
                int max_iter) {
  const auto p = sized_params(static_cast<unsigned>(state.range(0)));
  const models::TagsModel model(p);
  ctmc::SteadyStateOptions opts;
  opts.method = method;
  opts.tol = 1e-10;
  opts.max_iter = max_iter;
  bool converged = true;
  double residual = 0.0;
  for (auto _ : state) {
    const auto r = ctmc::steady_state(model.chain().generator(), opts);
    converged = r.converged;
    residual = r.residual;
    benchmark::DoNotOptimize(r.pi.data());
  }
  state.counters["states"] = static_cast<double>(model.n_states());
  state.counters["converged"] = converged ? 1.0 : 0.0;
  state.counters["residual"] = residual;
}

void BM_SteadyGaussSeidel(benchmark::State& state) {
  run_method(state, ctmc::SteadyStateMethod::kGaussSeidel, 200000);
}
void BM_SteadyDenseLu(benchmark::State& state) {
  run_method(state, ctmc::SteadyStateMethod::kDenseLu, 1);
}

BENCHMARK(BM_SteadyGaussSeidel)->Arg(4)->Arg(10)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SteadyDenseLu)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Warm-start benefit: solve at t, then at t + 1 from the previous solution.
void BM_WarmStartedResolve(benchmark::State& state) {
  auto p = sized_params(10);
  const models::TagsModel base(p);
  const auto first = base.solve();
  p.t += 1.0;
  const models::TagsModel shifted(p);
  for (auto _ : state) {
    ctmc::SteadyStateOptions opts;
    opts.method = ctmc::SteadyStateMethod::kGaussSeidel;
    opts.initial_guess = first.pi;
    const auto r = shifted.solve(opts);
    benchmark::DoNotOptimize(r.iterations);
  }
}
BENCHMARK(BM_WarmStartedResolve)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool report_only = false;
  // Consume our own flags so google-benchmark does not reject them.
  tags::bench::consume_export_flags(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--solvers-report-only") == 0) {
      report_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  const int rc = run_solvers_report();
  if (report_only) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
