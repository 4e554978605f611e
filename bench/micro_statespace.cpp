// State-space machinery benchmarks: PEPA parsing + derivation versus the
// hand-written direct CTMC builders, across model sizes — plus the
// rebuild-vs-rebind comparison for parameter sweeps on the generator
// engine.
//
// Unlike the other microbenches this binary has its own main: before the
// google-benchmark suite it runs a deterministic fig07-style t-sweep both
// ways (full rebuild per point vs rate rebind on the frozen pattern),
// records the ratio into gauges, and writes
// results/micro_statespace_telemetry.json. `--rebind-report-only` skips
// the google-benchmark suite (used by the ctest telemetry fixture).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>

#include "bench_util.hpp"
#include "core/sweep.hpp"
#include "models/pepa_sources.hpp"
#include "models/tags.hpp"
#include "pepa/parser.hpp"
#include "pepa/derivation.hpp"

namespace {

using namespace tags;

models::TagsParams sized(unsigned k, unsigned n) {
  models::TagsParams p;
  p.k1 = p.k2 = k;
  p.n = n;
  return p;
}

void BM_DirectBuild(benchmark::State& state) {
  const auto p = sized(static_cast<unsigned>(state.range(0)),
                       static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    models::TagsModel model(p);
    benchmark::DoNotOptimize(model.n_states());
  }
  state.counters["states"] =
      static_cast<double>(models::TagsModel::state_count(p));
}
BENCHMARK(BM_DirectBuild)->Args({4, 3})->Args({10, 6})->Args({16, 8});

void BM_RebindRates(benchmark::State& state) {
  auto p = sized(static_cast<unsigned>(state.range(0)),
                 static_cast<unsigned>(state.range(1)));
  models::TagsModel model(p);
  double t = p.t;
  for (auto _ : state) {
    p.t = (t += 1.0);
    model.rebind(p);
    benchmark::DoNotOptimize(model.chain().nnz());
  }
  state.counters["states"] = static_cast<double>(model.n_states());
}
BENCHMARK(BM_RebindRates)->Args({4, 3})->Args({10, 6})->Args({16, 8});

void BM_PepaParse(benchmark::State& state) {
  const auto p = sized(static_cast<unsigned>(state.range(0)), 6);
  const std::string src = models::tags_pepa_source(p);
  for (auto _ : state) {
    auto model = pepa::parse_model(src);
    benchmark::DoNotOptimize(model.definitions.size());
  }
  state.counters["bytes"] = static_cast<double>(src.size());
}
BENCHMARK(BM_PepaParse)->Arg(4)->Arg(10)->Arg(16);

void BM_PepaDerive(benchmark::State& state) {
  const auto p = sized(static_cast<unsigned>(state.range(0)),
                       static_cast<unsigned>(state.range(1)));
  const auto model = pepa::parse_model(models::tags_pepa_source(p));
  for (auto _ : state) {
    auto dm = pepa::derive(model, "System");
    benchmark::DoNotOptimize(dm.chain.n_states());
  }
  state.counters["states"] =
      static_cast<double>(models::TagsModel::state_count(p));
}
BENCHMARK(BM_PepaDerive)->Args({4, 3})->Args({10, 6})->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Rebuild vs rebind over a fig07-style t-sweep (assembly cost only: the
// solver is shared by both strategies and would dilute the ratio).
// ---------------------------------------------------------------------------

double run_rebind_report() {
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point start) {
    return std::chrono::duration<double, std::milli>(clock::now() - start).count();
  };

  const auto t_values = core::linspace(10.0, 100.0, 31);
  models::TagsParams base;  // paper defaults: lambda=5, mu=10, n=6, K=10

  // Strategy A: rebuild the model (state enumeration + CSR assembly) at
  // every sweep point.
  const auto t0 = clock::now();
  ctmc::index_t states = 0;
  for (double t : t_values) {
    models::TagsParams p = base;
    p.t = t;
    const models::TagsModel model(p);
    states = model.n_states();
    benchmark::DoNotOptimize(model.chain().nnz());
  }
  const double rebuild_ms = ms_since(t0);

  // Strategy B: build once, rebind rates onto the frozen pattern.
  const auto t1 = clock::now();
  models::TagsModel model(base);
  for (double t : t_values) {
    models::TagsParams p = base;
    p.t = t;
    model.rebind(p);
    benchmark::DoNotOptimize(model.chain().nnz());
  }
  const double rebind_ms = ms_since(t1);

  // Strategy C: the sharded parallel engine — one model instance per
  // shard, rebinding thread-locally on the pool (assembly only, like A/B).
  const auto t2 = clock::now();
  core::SweepStats stats;
  const auto nnzs = core::sharded_sweep<std::size_t>(
      t_values.size(), core::SweepPlan{},
      [&](core::ShardRange range, std::span<std::size_t> out,
          ctmc::WarmStartState&) {
        std::optional<models::TagsModel> local;
        for (std::size_t i = range.begin; i < range.end; ++i) {
          models::TagsParams p = base;
          p.t = t_values[i];
          if (local) {
            local->rebind(p);
          } else {
            local.emplace(p);
          }
          out[i - range.begin] = local->chain().nnz();
        }
      },
      &stats);
  benchmark::DoNotOptimize(nnzs.data());
  const double sharded_ms = ms_since(t2);

  const double speedup = rebind_ms > 0.0 ? rebuild_ms / rebind_ms : 0.0;
  std::printf(
      "t-sweep over %zu points (%lld states): rebuild %.3f ms, rebind %.3f ms, "
      "speedup %.2fx; sharded rebind (%u threads, %zu shards) %.3f ms\n",
      t_values.size(), static_cast<long long>(states), rebuild_ms, rebind_ms,
      speedup, stats.threads, stats.shards, sharded_ms);

  // Rebind composes with the transpose cache: the frozen pattern means a
  // rate rebind only refreshes cached values — the transposed pattern is
  // built once per model, not once per sweep point. Pin that with a
  // solve / rebind / solve round trip on a small chain.
  obs::Counter cache_misses("numerics.transpose_cache.misses");
  obs::Counter cache_refreshes("numerics.transpose_cache.refreshes");
  const std::uint64_t misses_before = cache_misses.value();
  const std::uint64_t refreshes_before = cache_refreshes.value();
  models::TagsParams cache_p = base;
  cache_p.k1 = cache_p.k2 = 4;
  models::TagsModel cache_model(cache_p);
  benchmark::DoNotOptimize(cache_model.solve().pi.data());  // builds the cache
  cache_p.t += 1.0;
  cache_model.rebind(cache_p);
  benchmark::DoNotOptimize(cache_model.solve().pi.data());  // refresh, no rebuild
  const std::uint64_t pattern_builds = cache_misses.value() - misses_before;
  const std::uint64_t refreshes = cache_refreshes.value() - refreshes_before;
  const bool pattern_reused = pattern_builds == 1 && refreshes >= 1;
  std::printf("transpose cache across rebind: %llu pattern build(s), %llu value "
              "refresh(es) — pattern reused: %s\n",
              static_cast<unsigned long long>(pattern_builds),
              static_cast<unsigned long long>(refreshes),
              pattern_reused ? "yes" : "NO");
  obs::gauge_set("bench.micro_statespace.transpose_cache_pattern_reuse",
                 pattern_reused ? 1.0 : 0.0);

  obs::gauge_set("bench.micro_statespace.sweep_points",
                 static_cast<double>(t_values.size()));
  obs::gauge_set("bench.micro_statespace.states", static_cast<double>(states));
  obs::gauge_set("bench.micro_statespace.rebuild_ms", rebuild_ms);
  obs::gauge_set("bench.micro_statespace.rebind_ms", rebind_ms);
  obs::gauge_set("bench.micro_statespace.rebind_speedup", speedup);
  obs::gauge_set("bench.micro_statespace.sharded_rebind_ms", sharded_ms);
  obs::gauge_set("bench.micro_statespace.sharded_threads",
                 static_cast<double>(stats.threads));
  tags::bench::emit_telemetry("micro_statespace");
  return speedup;
}

}  // namespace

int main(int argc, char** argv) {
  bool report_only = false;
  tags::bench::consume_export_flags(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rebind-report-only") == 0) {
      report_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  run_rebind_report();
  if (report_only) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
