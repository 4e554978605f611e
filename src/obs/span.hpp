// Causal span profiling: RAII spans with process-unique ids, parent ids,
// per-thread stacks, start/end timestamps, and key:value attributes. Spans
// are the one instrumentation mechanism: each span keeps its individual
// occurrence — one record per scope — so a single sweep yields a causally
// linked profile (which shard ran which solve, which solve paid the
// transpose fill) exportable as a Chrome trace / telemetry "spans" section,
// and each close also folds (count, total, self) into a per-name aggregate,
// span_stats(), behind the telemetry "timers" object and the Prometheus
// tags_timer_* families.
//
// Causality follows scopes on one thread automatically (the per-thread span
// stack supplies the parent id). Across threads it is explicit: capture
// Span::current_id() before handing work off, and construct the worker-side
// span with that id as `parent_id` (the ThreadPool does this per task, so
// anything solved inside a pool job hangs off the dispatching span).
//
// Intended granularity is per solve / per phase, not per iteration: scope
// exit takes a mutex. The record store caps at kMaxSpanRecords; beyond that
// spans are counted in trace.spans_dropped and their records discarded (ids
// keep advancing, so parent links in surviving records stay valid), while
// the per-name aggregate still counts them. Compiled out under
// TAGS_ENABLE_OBS=OFF.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/level.hpp"

namespace tags::obs {

/// One completed span, as exported into telemetry JSON v2 and Chrome traces.
struct SpanRecord {
  std::uint64_t id = 0;        ///< process-unique, assigned at construction
  std::uint64_t parent_id = 0; ///< 0 for roots
  std::uint32_t thread = 0;    ///< dense per-process thread index
  std::string name;
  std::uint64_t start_ns = 0;  ///< monotonic, relative to process start
  std::uint64_t end_ns = 0;
  /// duration minus the summed durations of same-thread direct children,
  /// clamped at zero. Filled when the span closes.
  std::uint64_t self_ns = 0;
  std::vector<std::pair<std::string, double>> num;
  std::vector<std::pair<std::string, std::string>> str;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// Per-name aggregate of closed spans: the telemetry "timers" entry.
struct SpanStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  ///< same-thread children excluded, as in SpanRecord
};

#if TAGS_OBS_ENABLED

class Span {
 public:
  /// Opens a span as a child of this thread's innermost active span (a root
  /// when the stack is empty). The name's characters are copied — any
  /// lifetime is fine. Inactive (zero-cost destructor, id() == 0) when the
  /// level is off at construction.
  explicit Span(std::string_view name);

  /// Opens a span with an explicit parent — the cross-thread edge. Pass the
  /// id captured via current_id() on the dispatching thread; 0 makes a root.
  Span(std::string_view name, std::uint64_t parent_id);

  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key:value attribute (copied). No-ops on an inactive span.
  void attr(std::string_view key, double v);
  void attr(std::string_view key, std::string_view v);

  /// This span's id, for parenting work dispatched to other threads.
  /// 0 when inactive.
  [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

  /// The innermost active span id on this thread (0 outside any span).
  [[nodiscard]] static std::uint64_t current_id() noexcept;

 private:
  void open(std::string_view name, std::uint64_t parent_id);

  SpanRecord rec_;
  Span* prev_ = nullptr;  ///< enclosing span on this thread's stack
  std::uint64_t child_ns_ = 0;  ///< summed durations of closed same-thread children
  bool active_ = false;
};

/// Snapshot of the completed-span store, in completion order (children
/// before their parents; sort by start_ns for parent-before-child order).
[[nodiscard]] std::vector<SpanRecord> span_records();

/// The exporter view: records sorted by (start_ns, id) — a parent starts no
/// later than its children and ids are assigned in construction order, so
/// parents always precede their children. Self time only subtracts
/// same-thread children: cross-thread children (pool jobs fanned out from a
/// sweep span) overlap in wall time, so subtracting them would be
/// meaningless.
[[nodiscard]] std::vector<SpanRecord> span_records_export();

/// Per-name aggregate of every closed span, dropped ones included, sorted
/// by name. Self time follows the same same-thread rule as the records.
[[nodiscard]] std::map<std::string, SpanStat> span_stats();

/// Spans discarded because the store was full (also mirrored in the
/// trace.spans_dropped counter).
[[nodiscard]] std::uint64_t spans_dropped() noexcept;

namespace detail {
void reset_spans();  // called by reset_metrics()
}

#else  // TAGS_OBS_ENABLED

class Span {
 public:
  explicit Span(std::string_view) noexcept {}
  Span(std::string_view, std::uint64_t) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void attr(std::string_view, double) noexcept {}
  void attr(std::string_view, std::string_view) noexcept {}
  [[nodiscard]] std::uint64_t id() const noexcept { return 0; }
  [[nodiscard]] static std::uint64_t current_id() noexcept { return 0; }
};

[[nodiscard]] inline std::vector<SpanRecord> span_records() { return {}; }
[[nodiscard]] inline std::vector<SpanRecord> span_records_export() { return {}; }
[[nodiscard]] inline std::map<std::string, SpanStat> span_stats() { return {}; }
[[nodiscard]] inline std::uint64_t spans_dropped() noexcept { return 0; }

#endif  // TAGS_OBS_ENABLED

}  // namespace tags::obs
