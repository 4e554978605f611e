#include "core/pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <utility>

#include "obs/numio.hpp"
#include "obs/obs.hpp"

namespace tags::core {

namespace {

// Batch-level instrumentation shared by every pool in the process (the
// registry aggregates same-named handles, so statics are fine).
obs::Counter& queued_counter() {
  static obs::Counter c("core.pool.tasks_queued");
  return c;
}
obs::Counter& stolen_counter() {
  static obs::Counter c("core.pool.tasks_stolen");
  return c;
}
obs::Counter& completed_counter() {
  static obs::Counter c("core.pool.tasks_completed");
  return c;
}
obs::Counter& posted_counter() {
  static obs::Counter c("core.pool.tasks_posted");
  return c;
}
obs::Counter& error_counter() {
  static obs::Counter c("core.pool.task_errors");
  return c;
}

}  // namespace

struct ThreadPool::State {
  /// One unit of work on a deque. Batched entries report their first
  /// exception back to the blocked run() caller; posted entries have no
  /// waiter, so an escaped exception is only counted.
  struct Entry {
    std::function<void()> fn;
    bool batched = false;
  };

  // One deque per worker. Owners pop from the front, thieves take from the
  // back; each deque has its own lock so a steal never blocks the victim's
  // neighbours.
  struct Queue {
    std::mutex m;
    std::deque<Entry> tasks;
  };

  explicit State(unsigned n) : queues(n), busy_ns(n) {
    for (auto& b : busy_ns) b.store(0, std::memory_order_relaxed);
  }

  std::vector<Queue> queues;
  std::vector<std::atomic<std::uint64_t>> busy_ns;
  std::atomic<std::uint64_t> stolen{0};
  std::atomic<std::uint64_t> completed{0};
  // Round-robin cursor for post() placement (run() deals by index).
  std::atomic<std::uint64_t> post_cursor{0};
  // Span id active on the thread that called run(): workers execute the
  // batch on other threads, so each task span names this as its parent
  // explicitly (the per-thread span stack cannot cross the pool boundary).
  std::atomic<std::uint64_t> batch_parent{0};

  // Lifecycle: run()/post() publish work under `m` and waiters sleep on
  // done_cv; workers sleep on work_cv between tasks.
  std::mutex m;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::size_t pending = 0;        ///< all tasks not yet finished
  std::size_t batch_pending = 0;  ///< batched tasks of the active run()
  bool stop = false;
  std::exception_ptr first_error;

  // Serialises concurrent run() callers (one batch in flight at a time).
  std::mutex run_m;

  /// Take one task: own queue first, then steal from the back of the most
  /// loaded victim. Returns false when every deque is empty.
  bool take(unsigned me, Entry& out, bool& stole) {
    {
      Queue& own = queues[me];
      const std::lock_guard<std::mutex> lock(own.m);
      if (!own.tasks.empty()) {
        out = std::move(own.tasks.front());
        own.tasks.pop_front();
        stole = false;
        return true;
      }
    }
    // Pick the victim with the longest queue (sampled without locks held
    // long: lock each candidate only for the peek/steal).
    const unsigned n = static_cast<unsigned>(queues.size());
    for (unsigned hop = 1; hop < n; ++hop) {
      Queue& victim = queues[(me + hop) % n];
      const std::lock_guard<std::mutex> lock(victim.m);
      if (!victim.tasks.empty()) {
        out = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        stole = true;
        return true;
      }
    }
    return false;
  }
};

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads > 0 ? threads : default_threads();
  state_ = std::make_unique<State>(n);
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(state_->m);
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(unsigned me) {
  State& s = *state_;
  for (;;) {
    bool stole = false;
    State::Entry entry;
    // Fast path: grab work (own deque, then steal) without the batch lock.
    bool got = s.take(me, entry, stole);
    if (!got) {
      std::unique_lock<std::mutex> lock(s.m);
      s.work_cv.wait(lock, [&] {
        if (s.stop) return true;
        got = s.take(me, entry, stole);
        return got;
      });
      if (!got) return;  // stop requested, queues drained
    }
    if (stole) {
      s.stolen.fetch_add(1, std::memory_order_relaxed);
      stolen_counter().add();
    }
    // Busy time is part of the pool's functional API (worker_busy_ns), so
    // measure it directly — obs::now_ns() is stubbed to 0 in obs-OFF builds.
    const auto start = std::chrono::steady_clock::now();
    std::exception_ptr error;
    {
      obs::Span span("core/pool_task",
                     entry.batched ? s.batch_parent.load(std::memory_order_relaxed)
                                   : 0);
      span.attr("worker", static_cast<double>(me));
      if (stole) span.attr("stolen", 1.0);
      try {
        entry.fn();
      } catch (...) {
        error = std::current_exception();
      }
    }
    entry.fn = nullptr;  // release captures before signalling completion
    const std::uint64_t elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    s.busy_ns[me].fetch_add(elapsed, std::memory_order_relaxed);
    s.completed.fetch_add(1, std::memory_order_relaxed);
    completed_counter().add();
    if (error) error_counter().add();
    obs::observe("core.pool.task_ms", static_cast<double>(elapsed) / 1e6);
    bool all_done = false;
    bool batch_done = false;
    {
      const std::lock_guard<std::mutex> lock(s.m);
      if (entry.batched) {
        if (error && !s.first_error) s.first_error = error;
        batch_done = (--s.batch_pending == 0);
      }
      all_done = (--s.pending == 0);
    }
    if (batch_done || all_done) s.done_cv.notify_all();
  }
}

void ThreadPool::run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  State& s = *state_;
  const std::lock_guard<std::mutex> batch_lock(s.run_m);
  s.batch_parent.store(obs::Span::current_id(), std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(s.m);
    s.first_error = nullptr;
    s.pending += tasks.size();
    s.batch_pending = tasks.size();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      State::Queue& q = s.queues[i % s.queues.size()];
      const std::lock_guard<std::mutex> qlock(q.m);
      q.tasks.push_back({std::move(tasks[i]), /*batched=*/true});
    }
  }
  queued_counter().add(tasks.size());
  s.work_cv.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(s.m);
    s.done_cv.wait(lock, [&] { return s.batch_pending == 0; });
    error = s.first_error;
    s.first_error = nullptr;
  }
  for (unsigned i = 0; i < size(); ++i) {
    obs::gauge_set(("core.pool.worker" + std::to_string(i) + ".busy_ms").c_str(),
                   static_cast<double>(worker_busy_ns(i)) / 1e6);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::post(std::function<void()> task) {
  State& s = *state_;
  const auto slot = static_cast<std::size_t>(
      s.post_cursor.fetch_add(1, std::memory_order_relaxed) % s.queues.size());
  {
    const std::lock_guard<std::mutex> lock(s.m);
    ++s.pending;
    State::Queue& q = s.queues[slot];
    const std::lock_guard<std::mutex> qlock(q.m);
    q.tasks.push_back({std::move(task), /*batched=*/false});
  }
  posted_counter().add();
  s.work_cv.notify_one();
}

void ThreadPool::wait_idle() {
  State& s = *state_;
  std::unique_lock<std::mutex> lock(s.m);
  s.done_cv.wait(lock, [&] { return s.pending == 0; });
}

std::uint64_t ThreadPool::worker_busy_ns(unsigned worker) const {
  return state_->busy_ns.at(worker).load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::tasks_stolen() const {
  return state_->stolen.load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::tasks_completed() const {
  return state_->completed.load(std::memory_order_relaxed);
}

unsigned ThreadPool::default_threads() {
  if (const char* env = std::getenv("TAGS_SWEEP_THREADS")) {
    if (const std::optional<unsigned> v = parse_threads(env); v && *v > 0) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::optional<unsigned> ThreadPool::parse_threads(std::string_view text) noexcept {
  const std::optional<unsigned> v = numio::parse_int<unsigned>(text);
  if (!v || *v > kMaxThreads) return std::nullopt;
  return v;
}

}  // namespace tags::core
