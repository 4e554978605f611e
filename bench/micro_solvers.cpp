// Steady-state solver comparison on real TAGS chains of growing size,
// plus the two-level Gauss-Seidel report.
//
// Like micro_sweep this binary has its own main: before the
// google-benchmark suite it solves two chains whose builders supply a
// partition of their states — the paper's Fig 5 PEPA model (12831
// states, 91 node-2 blocks) and the rare-timeout square chain (k1 = k2 =
// 10, t = 0.3; 5751 states, 81 blocks) — twice each: through kAuto, whose
// Gauss-Seidel stage is two-level on them, and on a copy of the generator
// without the partition (plain Gauss-Seidel). It records the sweep counts,
// certification verdicts and transpose-cache traffic into gauges written to
// results/micro_solvers_telemetry.json (pinned by the ctest fixture via
// tools/check_bench_json.py --require gauges.NAME).
// `--solvers-report-only` skips the google-benchmark suite.
//
// Findings (visible in the report): on both chains the slow mode runs
// between node-2 states, and rescaling the blocks to the coarse chain's
// masses at each residual check cuts the sweeps by a factor of 10 to 50,
// while the solves stay certified.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/inflow_rows.hpp"
#include "models/pepa_sources.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "pepa/derivation.hpp"
#include "pepa/parser.hpp"

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

struct TwoLevelComparison {
  int sweeps = 0;        ///< two-level Gauss-Seidel
  int plain_sweeps = 0;  ///< the same chain without its partition
  bool certified = false;
};

/// The two-level solve (kAuto) against plain Gauss-Seidel on a copy of
/// the generator without the partition: transposed() assembles from COO,
/// which attaches none, so the double transpose is the same matrix bare.
TwoLevelComparison compare_two_level(const char* label, const linalg::CsrMatrix& q) {
  const linalg::CsrMatrix plain = q.transposed().transposed();
  ctmc::SteadyStateResult two_level, generic;
  const double two_level_ms = time_solve_ms(q, {}, two_level);
  const double plain_ms = time_solve_ms(plain, {}, generic);
  TwoLevelComparison c;
  c.sweeps = two_level.iterations;
  c.plain_sweeps = generic.iterations;
  c.certified = two_level.certificate.ok() && generic.certificate.ok() &&
                two_level.method_used == ctmc::SteadyStateMethod::kGaussSeidel;
  std::printf("%-24s n=%6lld blocks=%4zu: two-level %5d sweeps %8.2f ms, "
              "plain %5d sweeps %8.2f ms, certified %s, max|dpi|=%.1e\n",
              label, static_cast<long long>(q.rows()), q.inflow_cache().blocks(), c.sweeps, two_level_ms, c.plain_sweeps, plain_ms, c.certified ? "yes" : "NO",
              linalg::max_abs_diff(two_level.pi, generic.pi));
  return c;
}

int run_solvers_report() {
  obs::Counter cache_hits("numerics.transpose_cache.hits");
  obs::Counter cache_misses("numerics.transpose_cache.misses");
  obs::Counter coarse_steps("ctmc.gauss_seidel.coarse_steps");
  const std::uint64_t hits_before = cache_hits.value();
  const std::uint64_t misses_before = cache_misses.value();
  const std::uint64_t steps_before = coarse_steps.value();

  // The paper's Fig 5 model near the fig09 optimum, derived from source:
  // its partition is the local state of Node2 = Q2 <...> T2.
  const auto fig5 = pepa::derive(
      pepa::parse_model(models::tags_h2_pepa_source(
          models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, 12.0))),
      "System");
  const auto fig5_cmp = compare_two_level("pepa fig5 k=10 t=12", fig5.chain.generator());

  // The rare-timeout square chain: host-2 re-runs are rare, so the few
  // node-2 states that hold jobs carry masses around 1e-9.
  auto rare = sized_params(10);
  rare.t = 0.3;
  const models::TagsModel rare_model(rare);
  const auto rare_cmp = compare_two_level("tags k=10 t=0.3 (rare)", rare_model.chain().generator());

  const double hit_delta = static_cast<double>(cache_hits.value() - hits_before);
  const double miss_delta =
      static_cast<double>(cache_misses.value() - misses_before);
  const double step_delta = static_cast<double>(coarse_steps.value() - steps_before);
  std::printf("transpose cache during report: %g hits, %g builds; %g coarse steps\n",
              hit_delta, miss_delta, step_delta);

  const bool all_certified = fig5_cmp.certified && rare_cmp.certified;
  // Sweep counts are deterministic: the smaller of the two cuts.
  const double sweep_ratio =
      std::min(static_cast<double>(fig5_cmp.plain_sweeps) / std::max(1, fig5_cmp.sweeps),
               static_cast<double>(rare_cmp.plain_sweeps) / std::max(1, rare_cmp.sweeps));

  obs::gauge_set("bench.micro_solvers.all_solves_certified",
                 all_certified ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_solvers.transpose_cache_hits", hit_delta);
  obs::gauge_set("bench.micro_solvers.transpose_cache_misses", miss_delta);
  obs::gauge_set("bench.micro_solvers.two_level_coarse_steps", step_delta);
  obs::gauge_set("bench.micro_solvers.two_level_sweep_ratio", sweep_ratio);
  obs::gauge_set("bench.micro_solvers.two_level_sweeps_fig5", fig5_cmp.sweeps);
  obs::gauge_set("bench.micro_solvers.plain_sweeps_fig5", fig5_cmp.plain_sweeps);
  obs::gauge_set("bench.micro_solvers.two_level_sweeps_rare", rare_cmp.sweeps);
  obs::gauge_set("bench.micro_solvers.plain_sweeps_rare", rare_cmp.plain_sweeps);
  tags::bench::emit_telemetry("micro_solvers");
  return all_certified && sweep_ratio > 1.0 ? 0 : 1;
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
