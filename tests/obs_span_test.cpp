// Causal span layer: parent/child nesting (same-thread via the per-thread
// stack, cross-thread via ThreadPool's explicit batch-parent edge), self-time
// attribution, the per-name aggregate behind the telemetry timers, store
// overflow accounting, exporter output, and — under TSan — concurrent span
// construction and trace emission into a shared sink.
//
// Suite names matter: the CI ThreadSanitizer leg selects concurrency-relevant
// suites by regex (ObsSpan|ObsTraceConcurrency among them).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "pepa/parser.hpp"

namespace {

using namespace tags;

#if TAGS_OBS_ENABLED

// Same global-state hygiene as ObsTest: every test starts and ends with no
// sink, level metrics, and empty aggregates (reset_metrics clears the span
// store too).
class ObsSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::clear_trace_sink();
    obs::set_level(obs::Level::kMetrics);
    obs::reset_metrics();
  }
  void TearDown() override {
    obs::clear_trace_sink();
    obs::set_level(obs::Level::kMetrics);
    obs::reset_metrics();
  }
};

using ObsTraceConcurrencyTest = ObsSpanTest;

const obs::SpanRecord* find_span(const std::vector<obs::SpanRecord>& recs,
                                 const std::string& name) {
  for (const auto& r : recs) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

void spin_briefly() {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(200);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST_F(ObsSpanTest, StackSuppliesParentIdsWithinOneThread) {
  std::uint64_t root_id = 0;
  std::uint64_t child_id = 0;
  {
    obs::Span root("t/root");
    root_id = root.id();
    ASSERT_GT(root_id, 0u);
    EXPECT_EQ(obs::Span::current_id(), root_id);
    {
      obs::Span child("t/child");
      child_id = child.id();
      EXPECT_EQ(obs::Span::current_id(), child_id);
      obs::Span grand("t/grand");
      EXPECT_GT(grand.id(), child_id);
    }
    EXPECT_EQ(obs::Span::current_id(), root_id);
  }
  EXPECT_EQ(obs::Span::current_id(), 0u);

  const auto recs = obs::span_records_export();
  ASSERT_EQ(recs.size(), 3u);
  const auto* root = find_span(recs, "t/root");
  const auto* child = find_span(recs, "t/child");
  const auto* grand = find_span(recs, "t/grand");
  ASSERT_TRUE(root != nullptr && child != nullptr && grand != nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(child->parent_id, root->id);
  EXPECT_EQ(grand->parent_id, child->id);
  // Export order is parent-before-child.
  EXPECT_EQ(recs[0].name, "t/root");
  EXPECT_EQ(recs[1].name, "t/child");
  EXPECT_EQ(recs[2].name, "t/grand");
  // Child intervals sit inside the parent's.
  EXPECT_GE(child->start_ns, root->start_ns);
  EXPECT_LE(child->end_ns, root->end_ns);
}

TEST_F(ObsSpanTest, ExplicitZeroParentMakesARootInsideAnotherSpan) {
  {
    obs::Span outer("t/outer");
    obs::Span detached("t/detached", 0);
    EXPECT_GT(detached.id(), outer.id());
  }
  const auto recs = obs::span_records_export();
  const auto* detached = find_span(recs, "t/detached");
  ASSERT_NE(detached, nullptr);
  EXPECT_EQ(detached->parent_id, 0u);
}

TEST_F(ObsSpanTest, SelfTimeSubtractsSameThreadChildrenExactly) {
  {
    obs::Span root("t/root");
    spin_briefly();
    {
      obs::Span child("t/child");
      spin_briefly();
    }
    spin_briefly();
  }
  const auto recs = obs::span_records_export();
  const auto* root = find_span(recs, "t/root");
  const auto* child = find_span(recs, "t/child");
  ASSERT_TRUE(root != nullptr && child != nullptr);
  // A leaf owns all its time; the parent's self time is its duration minus
  // the child's, exactly (both computed from the same records).
  EXPECT_EQ(child->self_ns, child->duration_ns());
  ASSERT_GE(root->duration_ns(), child->duration_ns());
  EXPECT_EQ(root->self_ns, root->duration_ns() - child->duration_ns());
  EXPECT_GT(root->self_ns, 0u);
}

TEST_F(ObsSpanTest, AttributesAreCopiedIntoTheRecord) {
  {
    obs::Span span("t/attrs");
    std::string key = "n";
    std::string val = "dense-lu";
    span.attr(key, 42.0);
    span.attr("method", std::string_view(val));
    key = "clobbered";
    val = "clobbered";
  }
  const auto recs = obs::span_records();
  ASSERT_EQ(recs.size(), 1u);
  ASSERT_EQ(recs[0].num.size(), 1u);
  EXPECT_EQ(recs[0].num[0].first, "n");
  EXPECT_DOUBLE_EQ(recs[0].num[0].second, 42.0);
  ASSERT_EQ(recs[0].str.size(), 1u);
  EXPECT_EQ(recs[0].str[0].first, "method");
  EXPECT_EQ(recs[0].str[0].second, "dense-lu");
}

TEST_F(ObsSpanTest, ParseModelClosesOnePepaParseSpan) {
  // Parsing records its own time wherever it is called from, so the CLI
  // and the model exporter attribute it without going through
  // pepa::solve_source.
  const pepa::Model m = pepa::parse_model("r = 2;\nP = (a, r).P;");
  EXPECT_EQ(m.definitions.size(), 1u);
  std::size_t parses = 0;
  for (const obs::SpanRecord& rec : obs::span_records()) {
    if (rec.name == "pepa/parse") ++parses;
  }
  EXPECT_EQ(parses, 1u);
}

TEST_F(ObsSpanTest, InactiveWhenLevelOff) {
  obs::set_level(obs::Level::kOff);
  {
    obs::Span span("t/should_not_appear");
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(obs::Span::current_id(), 0u);
  }
  obs::set_level(obs::Level::kMetrics);
  EXPECT_TRUE(obs::span_records().empty());
}

TEST_F(ObsSpanTest, StoreOverflowDropsAndCountsThenResets) {
  // kMaxSpanRecords is 65536; push past it and check the accounting adds up.
  constexpr std::size_t kTotal = 70000;
  for (std::size_t i = 0; i < kTotal; ++i) {
    obs::Span span("t/flood");
  }
  const std::size_t kept = obs::span_records().size();
  const std::uint64_t dropped = obs::spans_dropped();
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(kept + dropped, kTotal);
  // The per-name aggregate is folded before the cap: dropped spans count.
  EXPECT_EQ(obs::span_stats().at("t/flood").count, kept + dropped);
  obs::reset_metrics();
  EXPECT_TRUE(obs::span_records().empty());
  EXPECT_EQ(obs::spans_dropped(), 0u);
  EXPECT_TRUE(obs::span_stats().empty());
}

TEST_F(ObsSpanTest, PoolTasksParentUnderTheDispatchingSpan) {
  constexpr int kTasks = 8;
  std::uint64_t root_id = 0;
  {
    obs::Span root("t/dispatch");
    root_id = root.id();
    core::ThreadPool pool(4);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      tasks.emplace_back([] {
        obs::Span job("t/job");
        spin_briefly();
      });
    }
    pool.run(std::move(tasks));
  }

  const auto recs = obs::span_records_export();
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& r : recs) by_id[r.id] = &r;

  int pool_tasks = 0;
  int jobs = 0;
  for (const auto& r : recs) {
    if (r.name == "core/pool_task") {
      ++pool_tasks;
      // The cross-thread edge: every pool task hangs off the span that was
      // live on the thread that called run().
      EXPECT_EQ(r.parent_id, root_id);
    } else if (r.name == "t/job") {
      ++jobs;
      // The worker-side stack takes over: the job nests under its pool task,
      // on the same (worker) thread.
      const auto it = by_id.find(r.parent_id);
      ASSERT_NE(it, by_id.end());
      EXPECT_EQ(it->second->name, "core/pool_task");
      EXPECT_EQ(it->second->thread, r.thread);
      EXPECT_EQ(it->second->parent_id, root_id);
    }
  }
  EXPECT_EQ(pool_tasks, kTasks);
  EXPECT_EQ(jobs, kTasks);
}

TEST_F(ObsSpanTest, PoolTasksAreRootsWithoutADispatchingSpan) {
  core::ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) tasks.emplace_back([] { spin_briefly(); });
  pool.run(std::move(tasks));
  const auto recs = obs::span_records();
  for (const auto& r : recs) {
    if (r.name == "core/pool_task") {
      EXPECT_EQ(r.parent_id, 0u);
    }
  }
}

TEST_F(ObsSpanTest, ChromeTraceExportCarriesSpansAndMetadata) {
  {
    obs::Span root("t/export_root");
    root.attr("n", 7.0);
    obs::Span child("t/export_child");
  }
  const std::string json = obs::chrome_trace_json("unit_test");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("unit_test"), std::string::npos);
  EXPECT_NE(json.find("t/export_root"), std::string::npos);
  EXPECT_NE(json.find("t/export_child"), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);
}

TEST_F(ObsSpanTest, PrometheusExportCoversMetricFamilies) {
  obs::count("test.span.counter", 3);
  obs::gauge_set("test.span.gauge", 1.5);
  obs::Histogram h("test.span.hist", obs::Histogram::linear_bounds(0.0, 10.0, 5));
  h.observe(2.0);
  {
    const obs::Span span("obs_span_test/prom");
  }
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("tags_test_span_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("tags_test_span_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("le="), std::string::npos);
  EXPECT_NE(text.find("tags_timer_count_total{path=\"obs_span_test/prom\"} 1"),
            std::string::npos);
}

TEST_F(ObsSpanTest, TelemetryJsonV4CarriesTheSpanSection) {
  {
    obs::Span span("t/v2_span");
    span.attr("n", 3.0);
  }
  const std::string json = obs::metrics_json("span_unit");
  // The writer emits compact JSON (no spaces), so exact substrings work.
  EXPECT_NE(json.find("\"schema_version\":6"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t/v2_span\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);
}

TEST_F(ObsSpanTest, SpanStatsCopyTemporaryNames) {
  {
    std::string name = std::string("obs_span_test/") + "temporary";
    const obs::Span span(name);
    // Clobber the buffer the name view pointed into while the span is
    // still open: the span must have copied the characters.
    name.assign(64, 'x');
  }
  const auto stats = obs::span_stats();
  const auto it = stats.find("obs_span_test/temporary");
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.count, 1u);
}

TEST_F(ObsSpanTest, StatsEqualTheFoldOfExportedRecordsByName) {
  {
    obs::Span root("t/fold_root");
    spin_briefly();
    {
      obs::Span child("t/fold_child");
      spin_briefly();
    }
    core::ThreadPool pool(2);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 4; ++i) {
      tasks.emplace_back([] {
        obs::Span job("t/fold_job");
        spin_briefly();
      });
    }
    pool.run(std::move(tasks));
  }

  const auto recs = obs::span_records_export();
  std::map<std::string, obs::SpanStat> fold;
  for (const auto& r : recs) {
    obs::SpanStat& s = fold[r.name];
    ++s.count;
    s.total_ns += r.duration_ns();
    s.self_ns += r.self_ns;
  }
  const auto stats = obs::span_stats();
  ASSERT_EQ(stats.size(), fold.size());
  for (const auto& [name, want] : fold) {
    const auto it = stats.find(name);
    ASSERT_NE(it, stats.end()) << name;
    EXPECT_EQ(it->second.count, want.count) << name;
    EXPECT_EQ(it->second.total_ns, want.total_ns) << name;
    EXPECT_EQ(it->second.self_ns, want.self_ns) << name;
  }
  EXPECT_EQ(stats.at("core/pool_task").count, 4u);

  // The same-thread child is subtracted from the root; the cross-thread
  // core/pool_task children are not.
  const auto* root = find_span(recs, "t/fold_root");
  const auto* child = find_span(recs, "t/fold_child");
  ASSERT_TRUE(root != nullptr && child != nullptr);
  EXPECT_EQ(root->self_ns, root->duration_ns() - child->duration_ns());
  EXPECT_EQ(stats.at("t/fold_root").self_ns,
            root->duration_ns() - child->duration_ns());
  // Each pool task owns all but its nested job's time, on its own thread.
  for (const auto& r : recs) {
    if (r.name != "t/fold_job") continue;
    const auto task = std::find_if(recs.begin(), recs.end(), [&](const auto& t) {
      return t.id == r.parent_id;
    });
    ASSERT_NE(task, recs.end());
    EXPECT_EQ(task->self_ns, task->duration_ns() - r.duration_ns());
  }
}

// --- Concurrency suites (selected by the TSan CI leg) ---

TEST_F(ObsTraceConcurrencyTest, ConcurrentSpanEmissionKeepsIdsUniqueAndNested) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        obs::Span outer("t/conc_outer");
        obs::Span inner("t/conc_inner");
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto recs = obs::span_records_export();
  ASSERT_EQ(recs.size(), static_cast<std::size_t>(kThreads) * kIters * 2);
  const auto stats = obs::span_stats();
  const auto per_name = static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(stats.at("t/conc_outer").count, per_name);
  EXPECT_EQ(stats.at("t/conc_inner").count, per_name);
  std::vector<std::uint64_t> ids;
  ids.reserve(recs.size());
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& r : recs) {
    ids.push_back(r.id);
    by_id[r.id] = &r;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  for (const auto& r : recs) {
    if (r.name != "t/conc_inner") continue;
    const auto it = by_id.find(r.parent_id);
    ASSERT_NE(it, by_id.end());
    // Each inner span parents to an outer span on its own thread: the
    // per-thread stacks never leak a parent across threads.
    EXPECT_EQ(it->second->name, "t/conc_outer");
    EXPECT_EQ(it->second->thread, r.thread);
  }
}

TEST_F(ObsTraceConcurrencyTest, ConcurrentEmissionIntoSharedMemorySink) {
  auto sink = std::make_shared<obs::MemorySink>();
  obs::install_trace_sink(sink);
  constexpr int kThreads = 8;
  constexpr int kEvents = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kEvents; ++i) {
        obs::TraceEvent ev;
        ev.name = "test.concurrent_event";
        ev.num.emplace_back("thread", static_cast<double>(t));
        obs::emit(std::move(ev));
      }
    });
  }
  for (auto& t : threads) t.join();
  obs::clear_trace_sink();
  EXPECT_EQ(sink->events().size(),
            static_cast<std::size_t>(kThreads) * kEvents);
  EXPECT_EQ(sink->dropped(), 0u);
}

TEST_F(ObsTraceConcurrencyTest, BoundedSinkDropsBeyondCapacityUnderContention) {
  obs::MemorySink sink(/*capacity=*/16);
  constexpr int kThreads = 4;
  constexpr int kEvents = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < kEvents; ++i) {
        obs::TraceEvent ev;
        ev.name = "test.capped_event";
        sink.on_event(ev);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sink.events().size(), 16u);
  EXPECT_EQ(sink.dropped(),
            static_cast<std::uint64_t>(kThreads) * kEvents - 16u);
}

TEST_F(ObsTraceConcurrencyTest, PoolWorkersNestSpansWhileMainThreadExports) {
  // Exercise export-under-emission: workers create spans while the main
  // thread repeatedly snapshots the store. TSan checks the locking; the
  // final count checks nothing was lost.
  constexpr int kTasks = 32;
  {
    obs::Span root("t/export_race_root");
    core::ThreadPool pool(4);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      tasks.emplace_back([] {
        obs::Span job("t/export_race_job");
        spin_briefly();
      });
    }
    std::thread reader([] {
      for (int i = 0; i < 50; ++i) {
        (void)obs::span_records_export();
        (void)obs::spans_dropped();
      }
    });
    pool.run(std::move(tasks));
    reader.join();
  }
  const auto recs = obs::span_records();
  int jobs = 0;
  for (const auto& r : recs) jobs += r.name == "t/export_race_job" ? 1 : 0;
  EXPECT_EQ(jobs, kTasks);
}

#else  // TAGS_OBS_ENABLED

TEST(ObsSpanDisabled, StubsAreInertAndExportsEmpty) {
  obs::Span span("t/ignored");
  span.attr("n", 1.0);
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(obs::Span::current_id(), 0u);
  EXPECT_TRUE(obs::span_records().empty());
  EXPECT_TRUE(obs::span_records_export().empty());
  EXPECT_TRUE(obs::span_stats().empty());
  EXPECT_EQ(obs::spans_dropped(), 0u);
}

#endif  // TAGS_OBS_ENABLED

}  // namespace
