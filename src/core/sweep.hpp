// Parameter sweeps. sharded_sweep is the parallel sweep engine: the grid
// is cut into contiguous shards, each shard is evaluated as one task on
// the work-stealing pool (core/pool.hpp) with its own thread-local
// ctmc::WarmStartState (warm starts never cross shards, and each solve
// starts from the previous point's stationary vector), and results are
// merged back in grid order.
//
// Determinism contract (see DESIGN.md "Parallel sweep engine"): the shard
// plan is a function of the grid alone — never of the thread count — and a
// shard's evaluation depends only on its own inputs and warm-start chain.
// Running the same grid with 1, 2, or N threads therefore produces
// bit-identical results and identical per-shard warm-start counters; the
// thread count only changes which worker executes a shard and when.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/pool.hpp"
#include "ctmc/steady_state.hpp"
#include "obs/obs.hpp"
#include "store/codec.hpp"
#include "store/sweep_journal.hpp"

namespace tags::core {

/// Evenly spaced values [lo, hi] inclusive.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t count);

// ---------------------------------------------------------------------------
// Sharded parallel sweep engine
// ---------------------------------------------------------------------------

/// Half-open index range [begin, end) of grid points forming one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// Execution plan for a sharded sweep. `threads == 0` resolves to
/// ThreadPool::default_threads() (TAGS_SWEEP_THREADS, else hardware
/// concurrency); `shard_size == 0` resolves to default_shard_size(n).
struct SweepPlan {
  unsigned threads = 0;
  std::size_t shard_size = 0;
  /// Read by nothing: the batched multi-point solve it sized is gone.
  /// perfbench/harness.cpp still names it in three designated
  /// initializers, so it stays until the next change to the benchmark
  /// deletes it there and here.
  std::size_t batch = 0;
};

/// Default shard size: a function of the grid size only (so results never
/// depend on the machine), small enough to load-balance a many-core pool
/// on the paper's ~30-point grids, large enough to amortise the cold solve
/// that starts every shard's warm-start chain.
[[nodiscard]] std::size_t default_shard_size(std::size_t n_points) noexcept;

/// Cut [0, n_points) into contiguous shards of `shard_size` (the last
/// shard takes the remainder). shard_size == 0 uses the default.
[[nodiscard]] std::vector<ShardRange> plan_shards(std::size_t n_points,
                                                  std::size_t shard_size = 0);

/// What a sharded sweep did: merged warm-start counters plus the shape of
/// the run. Counters are summed in grid order, so totals are identical for
/// every thread count.
struct SweepStats {
  ctmc::WarmStartState warm;  ///< merged counters (opts field unused)
  std::size_t points = 0;
  std::size_t shards = 0;
  unsigned threads = 1;
  /// Shards replayed from a sweep journal instead of being evaluated
  /// (always 0 without a store binding; see SweepJournalBinding).
  std::size_t resumed = 0;
};

/// Binding between a sharded sweep and the durable store: the journal that
/// persists completed shards plus the result codec. `decode` must fill the
/// whole span and return false on any mismatch (a failed decode falls back
/// to evaluating the shard — resume is best-effort, correctness is not).
/// Encoding doubles by bit pattern (store::BufWriter::put_f64) is what
/// makes a resumed sweep byte-identical to an uninterrupted one.
template <class R>
struct SweepJournalBinding {
  store::SweepJournal* journal = nullptr;
  std::function<void(std::span<const R>, store::BufWriter&)> encode;
  std::function<bool(store::BufReader&, std::span<R>)> decode;

  [[nodiscard]] bool active() const noexcept { return journal != nullptr; }
};

/// The parallel sweep driver. `eval` is invoked once per shard — from
/// worker threads when threads > 1 — as
///   eval(ShardRange shard, std::span<R> out, ctmc::WarmStartState& warm)
/// and must fill out[i - shard.begin] for each grid index i in the shard,
/// building any per-shard state (model instance, warm chain) locally.
/// Results land in grid order; stats (when requested) merge shard counters
/// in grid order.
template <class R, class ShardEval>
[[nodiscard]] std::vector<R> sharded_sweep(std::size_t n_points, const SweepPlan& plan,
                                           ShardEval&& eval,
                                           SweepStats* stats = nullptr,
                                           const SweepJournalBinding<R>* binding = nullptr) {
  const std::vector<ShardRange> shards = plan_shards(n_points, plan.shard_size);
  const unsigned threads =
      plan.threads > 0 ? plan.threads : ThreadPool::default_threads();
  std::vector<R> results(n_points);
  std::vector<ctmc::WarmStartState> warm(shards.size());
  std::vector<unsigned char> resumed(shards.size(), 0);

  obs::Span sweep_span("core/sharded_sweep");
  sweep_span.attr("points", static_cast<double>(n_points));
  sweep_span.attr("shards", static_cast<double>(shards.size()));
  sweep_span.attr("threads", static_cast<double>(threads));
  obs::gauge_set("core.sweep.points", static_cast<double>(n_points));
  obs::gauge_set("core.sweep.shards", static_cast<double>(shards.size()));
  obs::gauge_set("core.sweep.threads", static_cast<double>(threads));

  const auto run_shard = [&](std::size_t s) {
    // Default-constructed: parents under the worker's core/pool_task span
    // on the threaded path, or directly under core/sharded_sweep serially.
    obs::Span span("core/shard");
    span.attr("shard", static_cast<double>(s));
    const ShardRange range = shards[s];
    span.attr("points", static_cast<double>(range.size()));
    const std::span<R> out(results.data() + range.begin, range.size());

    // Resume path: a shard the journal already holds is replayed (payload
    // decoded bit-exactly, warm counters restored from the record) instead
    // of evaluated; any decode mismatch falls through to evaluation.
    if (binding != nullptr && binding->active()) {
      store::WarmCounters wc{};
      if (const auto payload = binding->journal->load_shard(s, &wc)) {
        store::BufReader rd(*payload);
        if (binding->decode(rd, out) && rd.ok() && rd.at_end()) {
          warm[s].hits = wc[0];
          warm[s].misses = wc[1];
          warm[s].cleared = wc[2];
          warm[s].uncertified = wc[3];
          warm[s].predicted = wc[4];
          resumed[s] = 1;
          span.attr("resumed", 1.0);
          return;
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      eval(range, out, warm[s]);
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                    t0)
              .count();
      store::BufWriter w;
      binding->encode(std::span<const R>(out.data(), out.size()), w);
      binding->journal->commit_shard(
          s, w.bytes(),
          store::WarmCounters{warm[s].hits, warm[s].misses, warm[s].cleared,
                              warm[s].uncertified, warm[s].predicted},
          elapsed_ms);
      return;
    }
    eval(range, out, warm[s]);
  };
  if (threads <= 1 || shards.size() <= 1) {
    for (std::size_t s = 0; s < shards.size(); ++s) run_shard(s);
  } else {
    ThreadPool pool(threads);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      tasks.emplace_back([&run_shard, s] { run_shard(s); });
    }
    pool.run(std::move(tasks));
  }

  if (stats != nullptr) {
    stats->points = n_points;
    stats->shards = shards.size();
    stats->threads = threads;
    for (const ctmc::WarmStartState& w : warm) stats->warm.merge(w);
    for (const unsigned char r : resumed) stats->resumed += r;
  }
  return results;
}

}  // namespace tags::core
