// Work-stealing thread pool for coarse-grained batch work (sweep shards,
// scenario requests). Each worker owns a deque: it pops its own work from
// the front and, when empty, steals from the back of the most loaded
// victim. Tasks here are whole CTMC solves (milliseconds), so the deques
// are mutex-guarded — contention is negligible at that granularity and the
// locking keeps the pool trivially ThreadSanitizer-clean.
//
// Instrumented through src/obs: core.pool.tasks_queued / tasks_stolen /
// tasks_completed counters, per-worker busy time under
// core.pool.worker<i>.busy_ms gauges and a core.pool.task_ms histogram, so
// saturation shows up in the telemetry report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace tags::core {

class ThreadPool {
 public:
  /// The most threads any flag or TAGS_SWEEP_THREADS may ask for: well
  /// above the core count of the machines this runs on, and far below a
  /// count that could exhaust the process's thread limit.
  static constexpr unsigned kMaxThreads = 256;

  /// Spawns `threads` persistent workers (0 picks default_threads()).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Run a batch of tasks to completion. Tasks are dealt round-robin onto
  /// the worker deques; idle workers steal. Blocks until every task has
  /// finished; if any task threw, the first exception (in completion
  /// order) is rethrown after the batch has drained. Concurrent run()
  /// calls from different threads are serialised.
  void run(std::vector<std::function<void()>> tasks);

  /// Enqueue one task with no batch barrier: it runs as soon as a worker
  /// is free, and post() returns immediately. This is the long-lived
  /// service submission path (the serve::JobQueue drains through it).
  /// Posted tasks must not throw — there is no batch to rethrow into, so
  /// an escaped exception is swallowed after being counted under
  /// core.pool.task_errors (callers that care wrap their work in try/catch,
  /// as the JobQueue does). Safe to call from any thread, including from
  /// inside a running task.
  void post(std::function<void()> task);

  /// Block until every task — posted or batched — has finished. Intended
  /// for service shutdown/drain; new post() calls during the wait extend
  /// it.
  void wait_idle();

  /// Busy wall-clock nanoseconds accumulated by one worker across all
  /// batches so far (stable only between run() calls).
  [[nodiscard]] std::uint64_t worker_busy_ns(unsigned worker) const;

  /// Tasks this pool's workers took from another worker's deque.
  [[nodiscard]] std::uint64_t tasks_stolen() const;

  /// Tasks executed to completion (including ones that threw).
  [[nodiscard]] std::uint64_t tasks_completed() const;

  /// Thread count used when a caller passes 0: the TAGS_SWEEP_THREADS
  /// environment variable when parse_threads accepts it and it is not 0,
  /// otherwise std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static unsigned default_threads();

  /// A thread count as --threads= and TAGS_SWEEP_THREADS spell it: a whole
  /// unsigned decimal no greater than kMaxThreads, where 0 asks for the
  /// default. nullopt for anything else ("", "2x", "-1", "100000").
  [[nodiscard]] static std::optional<unsigned> parse_threads(std::string_view text) noexcept;

 private:
  struct State;
  void worker_loop(unsigned me);

  std::unique_ptr<State> state_;
  std::vector<std::thread> threads_;
};

}  // namespace tags::core
