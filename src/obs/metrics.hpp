// Process-wide metrics registry: counters (lock-free per-thread slabs),
// gauges, histograms (relaxed atomic buckets), and a bounded log of solver
// runs. Handles are cheap value types that cache a registry index; handles
// constructed with the same name share one metric, so `static` handles in
// different translation units aggregate together.
//
// Everything is safe to call from concurrent threads, including the sweep
// pool's workers. Aggregated reads (value(), the snapshots, ...) take a
// registry mutex; the write paths never do. Timings are not kept here: they
// are spans (obs/span.hpp), and metrics_json() assembles the telemetry
// document from the registry snapshots and the span layer's views.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/level.hpp"

namespace tags::obs {

/// One solver invocation, as recorded by the linalg and CTMC layers.
struct SolveRecord {
  std::string context;  ///< "linear" or "steady_state"
  std::string method;   ///< "gauss-seidel", "dense-lu", "power", ...
  std::int64_t n = 0;   ///< system size (CTMC states / matrix rows)
  int iterations = 0;
  double residual = 0.0;
  double relative_residual = 0.0;
  bool converged = false;
  bool diverged = false;
  /// Result certification (numerics layer): true when the recomputed
  /// residual / finiteness / probability-mass checks all passed.
  bool certified = false;
  /// Hager 1-norm condition estimate; 0 when the path did not compute one.
  double condition = 0.0;
  double wall_ms = 0.0;
  /// kAuto fallback chain, e.g. "dense-lu,gauss-seidel"
  std::string attempts;
  std::string note;      ///< free-form, e.g. "zero-diagonal" on a bailout
};

/// Registry snapshot entries (see counter_snapshots() and friends).
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;          ///< sorted upper bounds
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

#if TAGS_OBS_ENABLED

class Counter {
 public:
  explicit Counter(const std::string& name);
  /// Lock-free: increments this thread's slab slot (relaxed atomic).
  void add(std::uint64_t delta = 1) noexcept;
  /// Aggregate across all thread slabs.
  [[nodiscard]] std::uint64_t value() const;

 private:
  std::size_t id_;
};

class Gauge {
 public:
  explicit Gauge(const std::string& name);
  void set(double v) noexcept;
  [[nodiscard]] double value() const;

 private:
  std::size_t id_;
};

class Histogram {
 public:
  /// `upper_bounds` must be sorted ascending; an overflow bucket is implicit.
  /// Re-registering a name reuses the existing buckets.
  Histogram(const std::string& name, std::vector<double> upper_bounds);

  [[nodiscard]] static std::vector<double> exponential_bounds(double first, double factor,
                                                              std::size_t count);
  [[nodiscard]] static std::vector<double> linear_bounds(double lo, double hi,
                                                         std::size_t count);

  void observe(double v) noexcept;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  /// Linear interpolation within the containing bucket; the first bucket is
  /// anchored at 0 and the overflow bucket reports its lower edge. p in
  /// [0, 100].
  [[nodiscard]] double percentile(double p) const;

 private:
  std::size_t id_;
};

// Name-based one-shot helpers (one registry lookup per call — keep them off
// per-iteration hot loops; the handle classes above are for those).
void count(const char* name, std::uint64_t delta = 1);
void gauge_set(const char* name, double v);
/// Observes into a histogram with default exponential bounds.
void observe(const char* name, double v);

/// Appends to the bounded in-process solve log (no-op below level metrics).
void record_solve(SolveRecord rec);
[[nodiscard]] std::vector<SolveRecord> solve_records();
/// Solve records discarded because the log was full.
[[nodiscard]] std::uint64_t solves_dropped();

/// Monotonic nanoseconds, for wall-time deltas.
[[nodiscard]] std::uint64_t now_ns() noexcept;

// Read-only registry snapshots, for exporters (telemetry JSON, Prometheus
// text, the server /stats endpoint). Each call takes the registry mutex
// once.
[[nodiscard]] std::vector<CounterSnapshot> counter_snapshots();
[[nodiscard]] std::vector<GaugeSnapshot> gauge_snapshots();
[[nodiscard]] std::vector<HistogramSnapshot> histogram_snapshots();

/// Zero all values and drop the solve log; registered names survive.
void reset_metrics();

#else  // TAGS_OBS_ENABLED

class Counter {
 public:
  explicit Counter(const std::string&) {}
  void add(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const { return 0; }
};

class Gauge {
 public:
  explicit Gauge(const std::string&) {}
  void set(double) noexcept {}
  [[nodiscard]] double value() const { return 0.0; }
};

class Histogram {
 public:
  Histogram(const std::string&, std::vector<double>) {}
  [[nodiscard]] static std::vector<double> exponential_bounds(double, double,
                                                              std::size_t) {
    return {};
  }
  [[nodiscard]] static std::vector<double> linear_bounds(double, double, std::size_t) {
    return {};
  }
  void observe(double) noexcept {}
  [[nodiscard]] std::uint64_t count() const { return 0; }
  [[nodiscard]] double sum() const { return 0.0; }
  [[nodiscard]] double percentile(double) const { return 0.0; }
};

inline void count(const char*, std::uint64_t = 1) {}
inline void gauge_set(const char*, double) {}
inline void observe(const char*, double) {}
inline void record_solve(SolveRecord) {}
[[nodiscard]] inline std::vector<SolveRecord> solve_records() { return {}; }
[[nodiscard]] inline std::uint64_t solves_dropped() { return 0; }
[[nodiscard]] inline std::uint64_t now_ns() noexcept { return 0; }

[[nodiscard]] inline std::vector<CounterSnapshot> counter_snapshots() { return {}; }
[[nodiscard]] inline std::vector<GaugeSnapshot> gauge_snapshots() { return {}; }
[[nodiscard]] inline std::vector<HistogramSnapshot> histogram_snapshots() {
  return {};
}
inline void reset_metrics() {}

#endif  // TAGS_OBS_ENABLED

/// Whole-registry JSON snapshot (per-span-name timers, spans, counters,
/// gauges, histograms, solve log, and the server/store sections) — the
/// object written by write_telemetry_json. Schema v6:
/// tools/check_bench_json.py. Written from the snapshot API above, so an
/// obs-off build emits the same document with every collection empty and
/// every section field zero.
[[nodiscard]] std::string metrics_json(const std::string& id);

/// Writes metrics_json(id) to `path`, creating parent directories. Always
/// available (emits an empty-but-schema-valid document when observability is
/// compiled out or the level is 0). Returns false on I/O failure.
bool write_telemetry_json(const std::string& path, const std::string& id);

}  // namespace tags::obs
