// Parallel sweep engine benchmarks: serial-vs-parallel wall clock on the
// fig07 t-sweep (the paper's headline grid), determinism cross-check, and
// google-benchmark scaling curves for the sharded driver and the raw pool.
//
// Like micro_statespace this binary has its own main: before the
// google-benchmark suite it times the fig07 sweep once per thread count,
// verifies the parallel tables are bit-identical to the serial run and
// that the merged warm-start counters match, records everything into
// gauges, and writes results/micro_sweep_telemetry.json (validated by the
// ctest fixture via tools/check_bench_json.py --require gauges.NAME).
// `--sweep-report-only` skips the google-benchmark suite.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "core/pool.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "models/tags.hpp"

namespace {

using namespace tags;

/// Bitwise equality of two metric tables (the determinism contract is
/// bit-identical output, not within-tolerance output).
bool identical_tables(const std::vector<models::Metrics>& a,
                      const std::vector<models::Metrics>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(models::Metrics)) == 0;
}

double time_sweep_ms(const models::TagsParams& base, const std::vector<double>& ts,
                     const core::SweepPlan& plan, std::vector<models::Metrics>& out,
                     core::SweepStats& stats) {
  using clock = std::chrono::steady_clock;
  // Best of three: the solves dominate, but the first run also pays page
  // faults and allocator warmup.
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    core::SweepStats s;
    const auto t0 = clock::now();
    auto result = core::tags_t_sweep(base, ts, plan, &s);
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (rep == 0 || ms < best) best = ms;
    out = std::move(result);
    stats = s;
  }
  return best;
}

int run_sweep_report(unsigned parallel_threads) {
  const auto scenario = core::Fig6Scenario::make();
  const models::TagsParams base = scenario.tags_at(scenario.t_values.front());

  std::vector<models::Metrics> serial, parallel;
  core::SweepStats serial_stats, parallel_stats;
  const double serial_ms = time_sweep_ms(base, scenario.t_values,
                                         {.threads = 1}, serial, serial_stats);
  const double parallel_ms =
      time_sweep_ms(base, scenario.t_values, {.threads = parallel_threads},
                    parallel, parallel_stats);

  const bool identical = identical_tables(serial, parallel);
  const bool counters_match =
      serial_stats.warm.hits == parallel_stats.warm.hits &&
      serial_stats.warm.misses == parallel_stats.warm.misses &&
      serial_stats.warm.cleared == parallel_stats.warm.cleared;
  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;

  std::printf("fig07 t-sweep over %zu points, %zu shards: serial %.2f ms, "
              "%u threads %.2f ms, speedup %.2fx (%u hardware threads)\n",
              scenario.t_values.size(), serial_stats.shards, serial_ms,
              parallel_stats.threads, parallel_ms,
              speedup, core::ThreadPool::default_threads());
  std::printf("parallel table bit-identical to serial: %s; warm-start "
              "counters match: %s (hits/misses/cleared %llu/%llu/%llu)\n",
              identical ? "yes" : "NO", counters_match ? "yes" : "NO",
              static_cast<unsigned long long>(parallel_stats.warm.hits),
              static_cast<unsigned long long>(parallel_stats.warm.misses),
              static_cast<unsigned long long>(parallel_stats.warm.cleared));

  obs::gauge_set("bench.micro_sweep.points",
                 static_cast<double>(scenario.t_values.size()));
  obs::gauge_set("bench.micro_sweep.shards",
                 static_cast<double>(serial_stats.shards));
  obs::gauge_set("bench.micro_sweep.threads",
                 static_cast<double>(parallel_stats.threads));
  obs::gauge_set("bench.micro_sweep.serial_ms", serial_ms);
  obs::gauge_set("bench.micro_sweep.parallel_ms", parallel_ms);
  obs::gauge_set("bench.micro_sweep.speedup", speedup);
  obs::gauge_set("bench.micro_sweep.parallel_identical", identical ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_sweep.warm_counters_match",
                 counters_match ? 1.0 : 0.0);
  obs::gauge_set("bench.micro_sweep.warm_hits",
                 static_cast<double>(parallel_stats.warm.hits));
  obs::gauge_set("bench.micro_sweep.warm_misses",
                 static_cast<double>(parallel_stats.warm.misses));
  tags::bench::emit_telemetry("micro_sweep");
  return identical && counters_match ? 0 : 1;
}

// ---------------------------------------------------------------------------
// google-benchmark scaling curves
// ---------------------------------------------------------------------------

void BM_ShardedTagsSweep(benchmark::State& state) {
  // Smaller model than the report (n=3, K=6) so the full curve stays fast.
  models::TagsParams base;
  base.n = 3;
  base.k1 = base.k2 = 6;
  const auto ts = core::linspace(10.0, 150.0, 32);
  const core::SweepPlan plan{.threads = static_cast<unsigned>(state.range(0)),
                             .shard_size = 2};
  for (auto _ : state) {
    auto sweep = core::tags_t_sweep(base, ts, plan);
    benchmark::DoNotOptimize(sweep.data());
  }
  state.counters["threads"] = static_cast<double>(plan.threads);
}
BENCHMARK(BM_ShardedTagsSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PoolDispatchOverhead(benchmark::State& state) {
  // Cost of scattering and draining trivial tasks: the pool's fixed
  // overhead floor, which bounds how fine a shard is worth cutting.
  core::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const std::size_t n_tasks = 64;
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n_tasks);
    for (std::size_t i = 0; i < n_tasks; ++i) {
      tasks.emplace_back([&sink, i] {
        sink.fetch_add(i, std::memory_order_relaxed);
      });
    }
    pool.run(std::move(tasks));
  }
  state.counters["tasks"] = static_cast<double>(n_tasks);
  state.counters["stolen"] = static_cast<double>(pool.tasks_stolen());
}
BENCHMARK(BM_PoolDispatchOverhead)->Arg(1)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  bool report_only = false;
  unsigned threads = 8;
  // Consume our own flags so google-benchmark does not reject them.
  tags::bench::consume_export_flags(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-report-only") == 0) {
      report_only = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const long v = std::strtol(argv[i] + 10, nullptr, 10);
      if (v > 0) threads = static_cast<unsigned>(v);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  const int rc = run_sweep_report(threads);
  if (report_only) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
