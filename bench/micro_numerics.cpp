// Numerics benchmarks: what result certification costs, and proof-of-life
// gauges that the whole solver stack actually runs certified.
//
// Like micro_sweep this binary has its own main: before the
// google-benchmark suite it (1) times steady-state solves with
// certification on vs off, interleaved solve by solve, on both solver
// paths (dense-LU + condest, and Gauss-Seidel), (2) runs a fig07-style
// t-sweep plus transient solves and checks every solve record is
// certified-or-diverged, and (3) sweeps Fox-Glynn over q
// from 0.1 to 1e6 checking unit mass. Results land in
// gauges and results/micro_numerics_telemetry.json; the ctest fixture pins
// bench.micro_numerics.all_solves_certified and .fox_glynn_mass_ok via
// tools/check_bench_json.py --require gauges.NAME. `--numerics-report-only`
// skips the google-benchmark suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "ctmc/builder.hpp"
#include "ctmc/fox_glynn.hpp"
#include "ctmc/uniformization.hpp"
#include "models/tags.hpp"

namespace {

using namespace tags;
using clock_type = std::chrono::steady_clock;

double time_solve_ms(const models::TagsModel& model, bool certify) {
  ctmc::SteadyStateOptions opts;
  opts.certify = certify;
  const auto t0 = clock_type::now();
  const auto res = model.solve(opts);
  benchmark::DoNotOptimize(res.pi.data());
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Certification overhead on one solver path, in percent: the median over
/// kPairs pairs of each pair's relative difference between `reps`
/// uncertified and `reps` certified solves. The two sides alternate solve
/// by solve, each going first in turn, so both see the same host load,
/// and the median drops the pairs a burst of load hit.
double report_overhead(const char* label, const models::TagsParams& p, int reps) {
  constexpr int kPairs = 9;
  const models::TagsModel model(p);
  std::vector<double> off_ms(kPairs, 0.0), on_ms(kPairs, 0.0), pct;
  for (int pair = 0; pair < kPairs; ++pair) {
    for (int r = 0; r < reps; ++r) {
      const bool certified_first = (pair + r) % 2 == 1;
      for (const bool certify : {certified_first, !certified_first}) {
        (certify ? on_ms : off_ms)[pair] += time_solve_ms(model, certify);
      }
    }
    pct.push_back(100.0 * (on_ms[pair] - off_ms[pair]) / off_ms[pair]);
  }
  const double overhead = median(pct);
  std::printf("%s (%lld states, %d pairs of %d solves): uncertified %.2f ms, "
              "certified %.2f ms (medians), overhead %.1f%% (median of pairs, "
              "range %.1f..%.1f%%)\n",
              label, static_cast<long long>(model.n_states()), kPairs, reps,
              median(off_ms), median(on_ms), overhead,
              *std::min_element(pct.begin(), pct.end()),
              *std::max_element(pct.begin(), pct.end()));
  return overhead;
}

/// Every steady-state / transient record must be certified or explicitly
/// diverged — the "nothing lands in a table unchecked" contract.
bool all_records_certified(std::size_t* n_seen) {
  bool ok = true;
  std::size_t seen = 0;
  for (const auto& rec : obs::solve_records()) {
    if (rec.context != "steady_state" && rec.context != "transient") continue;
    ++seen;
    if (!rec.certified && !rec.diverged) {
      std::printf("UNCERTIFIED solve: context=%s method=%s n=%lld\n",
                  rec.context.c_str(), rec.method.c_str(),
                  static_cast<long long>(rec.n));
      ok = false;
    }
  }
  *n_seen = seen;
  return ok;
}

int run_numerics_report() {
  // --- certification overhead, both solver paths -------------------------
  models::TagsParams small = core::Fig6Scenario::make().tags_at(50.0);
  small.k1 = small.k2 = 4;  // 957 states: dense-LU path, pays the condest
  const double dense_pct = report_overhead("dense-lu path", small, 2);
  const models::TagsParams paper = core::Fig6Scenario::make().tags_at(50.0);
  const double gs_pct = report_overhead("gauss-seidel path", paper, 8);

  // --- all solves certified across a sweep + transients ------------------
  obs::reset_metrics();
  const auto scenario = core::Fig6Scenario::make();
  const auto ts = core::linspace(scenario.t_values.front(),
                                 scenario.t_values.back(), 16);
  core::SweepStats stats;
  const auto table =
      core::tags_t_sweep(scenario.tags_at(ts.front()), ts, {.threads = 4}, &stats);
  benchmark::DoNotOptimize(table.data());

  ctmc::CtmcBuilder b;
  b.add(0, 1, 800.0);
  b.add(1, 2, 1200.0);
  b.add(2, 0, 950.0);
  const auto chain = b.build();
  bool transients_ok = true;
  for (const double horizon : {0.01, 1.0, 100.0, 2000.0}) {
    const auto res = ctmc::transient_distribution_certified(
        chain, {1.0, 0.0, 0.0}, horizon);
    transients_ok = transients_ok && res.certificate.ok();
  }

  std::size_t n_records = 0;
  const bool records_ok = all_records_certified(&n_records);
  const bool all_certified =
      records_ok && transients_ok && stats.warm.uncertified == 0;
  std::printf("sweep over %zu points + 4 transients: %zu solve records, all "
              "certified-or-diverged: %s (sweep uncertified accepts: %llu)\n",
              ts.size(), n_records, all_certified ? "yes" : "NO",
              static_cast<unsigned long long>(stats.warm.uncertified));

  // --- Fox-Glynn mass across eleven decades ------------------------------
  bool fox_glynn_ok = true;
  for (const double q : {0.1, 1.0, 10.0, 100.0, 744.0, 745.0, 746.0, 1.0e3,
                         1.0e4, 1.0e5, 1.0e6}) {
    const auto fg = ctmc::fox_glynn(q, 1e-13);
    const bool ok = fg.ok && std::abs(1.0 - fg.total_weight) <= 1e-9;
    if (!ok) std::printf("fox-glynn mass FAILED at q=%g (W=%.17g)\n", q,
                         fg.total_weight);
    fox_glynn_ok = fox_glynn_ok && ok;
  }
  std::printf("fox-glynn unit mass, q in [0.1, 1e6]: %s\n",
              fox_glynn_ok ? "yes" : "NO");

  obs::gauge_set("bench.micro_numerics.certify_overhead_dense_pct", dense_pct);
  obs::gauge_set("bench.micro_numerics.certify_overhead_gs_pct", gs_pct);
  obs::gauge_set("bench.micro_numerics.solve_records",
                 static_cast<double>(n_records));
  obs::gauge_set("bench.micro_numerics.all_solves_certified",
                 all_certified ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_numerics.fox_glynn_mass_ok",
                 fox_glynn_ok ? 1.0 : 0.0);
  tags::bench::emit_telemetry("micro_numerics");
  return all_certified && fox_glynn_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// google-benchmark microbenchmarks
// ---------------------------------------------------------------------------

void BM_SteadyStateSolve(benchmark::State& state) {
  models::TagsParams p = core::Fig6Scenario::make().tags_at(50.0);
  p.k1 = p.k2 = 4;  // dense-LU path: certification includes the condest
  const models::TagsModel model(p);
  ctmc::SteadyStateOptions opts;
  opts.certify = state.range(0) != 0;
  for (auto _ : state) {
    const auto res = model.solve(opts);
    benchmark::DoNotOptimize(res.pi.data());
  }
  state.counters["certify"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SteadyStateSolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FoxGlynn(benchmark::State& state) {
  const double q = std::pow(10.0, static_cast<double>(state.range(0)));
  for (auto _ : state) {
    const auto fg = ctmc::fox_glynn(q, 1e-13);
    benchmark::DoNotOptimize(fg.weights.data());
  }
  state.counters["q"] = q;
}
BENCHMARK(BM_FoxGlynn)->Arg(0)->Arg(2)->Arg(4)->Arg(6);

void BM_CompensatedSum(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)), 1e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::sum_compensated(v));
  }
}
BENCHMARK(BM_CompensatedSum)->Arg(1 << 12)->Arg(1 << 16);

void BM_PlainSum(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)), 1e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::sum(v));
  }
}
BENCHMARK(BM_PlainSum)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

int main(int argc, char** argv) {
  bool report_only = false;
  tags::bench::consume_export_flags(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--numerics-report-only") == 0) {
      report_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  const int rc = run_numerics_report();
  if (report_only) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
