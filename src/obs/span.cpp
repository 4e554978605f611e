#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "obs/metrics.hpp"

namespace tags::obs {

namespace {

// Bounds the completed-span store: at roughly 150 bytes per record this is
// ~10 MB worst case. Long sweeps with more spans than this drop the excess
// (counted), exactly like the solve log.
constexpr std::size_t kMaxSpanRecords = 65536;

struct SpanStore {
  std::mutex mu;
  std::vector<SpanRecord> records;
  std::uint64_t dropped = 0;
  std::map<std::string, SpanStat> stats;
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_thread{0};

  static SpanStore& get() {
    static SpanStore* s = new SpanStore;  // leaked: outlives static destructors
    return *s;
  }
};

thread_local Span* tl_span_top = nullptr;

std::uint32_t this_thread_index() {
  thread_local const std::uint32_t index =
      SpanStore::get().next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::uint64_t span_clock_start_ns() {
  // Pinned at first use: span timestamps count from the first span the
  // process opens.
  static const std::uint64_t start = now_ns();
  return start;
}

std::uint64_t since_clock_start_ns() {
  // The base MUST be pinned before now is sampled: in `now_ns() - base`
  // the evaluation order is unspecified, and sampling now first makes the
  // very first span's start precede the base it then subtracts — a uint64
  // underflow. The saturation also absorbs sub-tick clock jitter.
  const std::uint64_t base = span_clock_start_ns();
  const std::uint64_t now = now_ns();
  return now > base ? now - base : 0;
}

}  // namespace

Span::Span(std::string_view name) {
  if (!metrics_on()) return;
  open(name, tl_span_top != nullptr ? tl_span_top->rec_.id : 0);
}

Span::Span(std::string_view name, std::uint64_t parent_id) {
  if (!metrics_on()) return;
  open(name, parent_id);
}

void Span::open(std::string_view name, std::uint64_t parent_id) {
  active_ = true;
  SpanStore& store = SpanStore::get();
  rec_.id = store.next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent_id = parent_id;
  rec_.thread = this_thread_index();
  rec_.name.assign(name.data(), name.size());
  prev_ = tl_span_top;
  tl_span_top = this;
  rec_.start_ns = since_clock_start_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = since_clock_start_ns();
  tl_span_top = prev_;
  // Self time excludes same-thread children only: a same-thread parent is
  // the span below this one on the thread's stack, while a cross-thread
  // child (a pool task) overlaps its parent in wall time and is never
  // subtracted.
  const std::uint64_t total = rec_.duration_ns();
  rec_.self_ns = total > child_ns_ ? total - child_ns_ : 0;
  if (prev_ != nullptr && prev_->rec_.id == rec_.parent_id) prev_->child_ns_ += total;
  SpanStore& store = SpanStore::get();
  bool dropped = false;
  {
    const std::lock_guard<std::mutex> lock(store.mu);
    // Folded before the record cap, so dropped spans are still counted.
    SpanStat& stat = store.stats[rec_.name];
    ++stat.count;
    stat.total_ns += total;
    stat.self_ns += rec_.self_ns;
    if (store.records.size() >= kMaxSpanRecords) {
      ++store.dropped;
      dropped = true;
    } else {
      store.records.push_back(std::move(rec_));
    }
  }
  // Counted outside the store lock: count() takes the registry mutex, and
  // reset_metrics() takes registry-then-store — nesting store-then-registry
  // here would be a lock-order inversion (TSan-flagged potential deadlock).
  if (dropped) count("trace.spans_dropped");
}

void Span::attr(std::string_view key, double v) {
  if (!active_) return;
  rec_.num.emplace_back(std::string(key), v);
}

void Span::attr(std::string_view key, std::string_view v) {
  if (!active_) return;
  rec_.str.emplace_back(std::string(key), std::string(v));
}

std::uint64_t Span::current_id() noexcept {
  return tl_span_top != nullptr ? tl_span_top->id() : 0;
}

std::vector<SpanRecord> span_records() {
  SpanStore& store = SpanStore::get();
  const std::lock_guard<std::mutex> lock(store.mu);
  return store.records;
}

std::vector<SpanRecord> span_records_export() {
  std::vector<SpanRecord> recs = span_records();
  std::sort(recs.begin(), recs.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return recs;
}

std::map<std::string, SpanStat> span_stats() {
  SpanStore& store = SpanStore::get();
  const std::lock_guard<std::mutex> lock(store.mu);
  return store.stats;
}

std::uint64_t spans_dropped() noexcept {
  SpanStore& store = SpanStore::get();
  const std::lock_guard<std::mutex> lock(store.mu);
  return store.dropped;
}

namespace detail {

void reset_spans() {
  SpanStore& store = SpanStore::get();
  const std::lock_guard<std::mutex> lock(store.mu);
  store.records.clear();
  store.dropped = 0;
  store.stats.clear();
}

}  // namespace detail

}  // namespace tags::obs
