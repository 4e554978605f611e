// The work-stealing thread pool and the sharded sweep driver built on it:
// task accounting, stealing, exception propagation, shard planning, and
// the per-shard WarmStartState bookkeeping (including the cleared-on-
// dimension-change path).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pool.hpp"
#include "core/sweep.hpp"
#include "ctmc/steady_state.hpp"

namespace {

using namespace tags;

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kTasks = 100;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.emplace_back([&runs, i] { runs[i].fetch_add(1); });
  }
  pool.run(std::move(tasks));
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(pool.tasks_completed(), kTasks);
}

TEST(ThreadPool, HandlesMoreThreadsThanTasksAndEmptyBatches) {
  core::ThreadPool pool(8);
  pool.run({});  // no-op
  std::atomic<int> count{0};
  pool.run({[&] { ++count; }, [&] { ++count; }});
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  core::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) tasks.emplace_back([&] { ++count; });
    pool.run(std::move(tasks));
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
  EXPECT_EQ(pool.tasks_completed(), 50u);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterBatchDrains) {
  core::ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([&executed, i] {
      ++executed;
      if (i % 2 == 1) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
  // The batch drains fully even when tasks throw: no task is abandoned.
  EXPECT_EQ(executed.load(), 8);
}

TEST(ThreadPool, IdleWorkersStealQueuedWork) {
  // Tasks are dealt round-robin, so with two workers the slow tasks all
  // land on worker 0's deque; worker 1 drains its own fast tasks and must
  // steal the remaining slow ones to finish the batch.
  core::ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      tasks.emplace_back(
          [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    } else {
      tasks.emplace_back([] {});
    }
  }
  pool.run(std::move(tasks));
  EXPECT_GE(pool.tasks_stolen(), 1u);
  EXPECT_EQ(pool.tasks_completed(), 8u);
  // Busy time is tracked per worker and both participated.
  EXPECT_GT(pool.worker_busy_ns(0) + pool.worker_busy_ns(1), 0u);
}

// Reads the count only: no pool is built, so no thread is started.
TEST(ThreadPool, DefaultThreadsHonoursEnvOverride) {
  ASSERT_EQ(setenv("TAGS_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(core::ThreadPool::default_threads(), 3u);
  ASSERT_EQ(setenv("TAGS_SWEEP_THREADS", "256", 1), 0);
  EXPECT_EQ(core::ThreadPool::default_threads(), core::ThreadPool::kMaxThreads);
  // Malformed, negative and oversized values fall back to the hardware
  // count instead of whatever prefix strtol made of them.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const char* bad : {"not-a-number", "2x", "-1", "100000", "257", "0"}) {
    ASSERT_EQ(setenv("TAGS_SWEEP_THREADS", bad, 1), 0);
    EXPECT_EQ(core::ThreadPool::default_threads(), hw) << bad;
  }
  ASSERT_EQ(unsetenv("TAGS_SWEEP_THREADS"), 0);
  EXPECT_EQ(core::ThreadPool::default_threads(), hw);
}

TEST(ShardedSweep, PlanCoversGridContiguouslyAndIgnoresThreads) {
  for (std::size_t n : {0u, 1u, 2u, 29u, 64u, 1000u}) {
    const auto shards = core::plan_shards(n, 0);
    std::size_t expect_begin = 0;
    for (const auto& s : shards) {
      EXPECT_EQ(s.begin, expect_begin);
      EXPECT_GT(s.end, s.begin);
      expect_begin = s.end;
    }
    EXPECT_EQ(expect_begin, n);
  }
  // The plan is a pure function of the grid — SweepPlan carries the thread
  // count separately, so there is nothing machine-dependent to leak in.
  const auto a = core::plan_shards(29, 0);
  const auto b = core::plan_shards(29, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
  // Explicit shard sizes are respected (last shard takes the remainder).
  const auto c = core::plan_shards(10, 4);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[2].begin, 8u);
  EXPECT_EQ(c[2].end, 10u);
}

TEST(ShardedSweep, ResultsLandInGridOrder) {
  const std::size_t n = 57;
  core::SweepStats stats;
  const auto results = core::sharded_sweep<double>(
      n, core::SweepPlan{.threads = 4, .shard_size = 3},
      [](core::ShardRange range, std::span<double> out, ctmc::WarmStartState&) {
        for (std::size_t i = range.begin; i < range.end; ++i) {
          out[i - range.begin] = static_cast<double>(i) * 2.0;
        }
      },
      &stats);
  ASSERT_EQ(results.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(results[i], static_cast<double>(i) * 2.0) << i;
  }
  EXPECT_EQ(stats.points, n);
  EXPECT_EQ(stats.shards, (n + 2) / 3);
  EXPECT_EQ(stats.threads, 4u);
}

TEST(ShardedSweep, StatsMergeShardCountersInGridOrder) {
  core::SweepStats stats;
  (void)core::sharded_sweep<int>(
      12, core::SweepPlan{.threads = 2, .shard_size = 4},
      [](core::ShardRange range, std::span<int> out, ctmc::WarmStartState& warm) {
        warm.hits = range.size();  // pretend every point after the first hit
        warm.misses = 1;
        for (std::size_t i = 0; i < range.size(); ++i) out[i] = 0;
      },
      &stats);
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_EQ(stats.warm.hits, 12u);
  EXPECT_EQ(stats.warm.misses, 3u);
}

TEST(WarmStart, ClearedOnDimensionChange) {
  ctmc::WarmStartState warm;
  // Cold first solve: no guess yet.
  warm.reconcile(4);
  EXPECT_EQ(warm.misses, 1u);
  EXPECT_EQ(warm.hits, 0u);

  ctmc::SteadyStateResult converged;
  converged.converged = true;
  converged.pi = {0.25, 0.25, 0.25, 0.25};
  warm.accept(converged);
  ASSERT_TRUE(warm.opts.initial_guess.has_value());

  // Same dimension: the guess survives and counts as a hit.
  warm.reconcile(4);
  EXPECT_EQ(warm.hits, 1u);
  EXPECT_EQ(warm.cleared, 0u);

  // Dimension change (a structural parameter moved): the stale guess is
  // dropped, counted, and the solve books as a miss.
  warm.reconcile(5);
  EXPECT_FALSE(warm.opts.initial_guess.has_value());
  EXPECT_EQ(warm.cleared, 1u);
  EXPECT_EQ(warm.misses, 2u);

  // A failed solve must not poison the next point's guess.
  ctmc::SteadyStateResult failed;
  failed.converged = false;
  failed.pi = {0.2, 0.2, 0.2, 0.2, 0.2};
  warm.accept(failed);
  EXPECT_FALSE(warm.opts.initial_guess.has_value());

  // merge() folds counters (grid-order reduction over shards).
  ctmc::WarmStartState other;
  other.hits = 7;
  other.misses = 2;
  other.cleared = 1;
  warm.merge(other);
  EXPECT_EQ(warm.hits, 8u);
  EXPECT_EQ(warm.misses, 4u);
  EXPECT_EQ(warm.cleared, 2u);
}

}  // namespace
