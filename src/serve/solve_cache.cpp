#include "serve/solve_cache.hpp"

#include <atomic>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "ctmc/digest.hpp"
#include "obs/metrics.hpp"

namespace tags::serve {

namespace {

struct KeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    std::uint64_t h = ctmc::fnv1a64(k.model.data(), k.model.size());
    h = ctmc::fnv1a64_u64(k.rates, h);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

struct SolveCache::State {
  explicit State(std::size_t capacity)
      : capacity(capacity),
        hit_counter("serve.cache_hit"),
        miss_counter("serve.cache_miss"),
        evict_counter("serve.cache_evicted"),
        size_gauge("serve.cache.size") {}

  const std::size_t capacity;

  mutable std::mutex m;
  /// Most-recently-used at the front.
  std::list<std::pair<CacheKey, Answer>> lru;
  std::unordered_map<CacheKey, std::list<std::pair<CacheKey, Answer>>::iterator, KeyHash>
      index;

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};

  obs::Counter hit_counter;
  obs::Counter miss_counter;
  obs::Counter evict_counter;
  obs::Gauge size_gauge;
};

SolveCache::SolveCache(std::size_t capacity) : state_(std::make_unique<State>(capacity)) {}

SolveCache::~SolveCache() = default;

std::optional<Answer> SolveCache::lookup(const CacheKey& key, bool count) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    if (count) {
      s.misses.fetch_add(1, std::memory_order_relaxed);
      s.miss_counter.add(1);
    }
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  if (count) {
    s.hits.fetch_add(1, std::memory_order_relaxed);
    s.hit_counter.add(1);
  }
  return it->second->second;
}

void SolveCache::insert(const CacheKey& key, const Answer& answer) {
  State& s = *state_;
  if (s.capacity == 0) return;
  std::lock_guard<std::mutex> lock(s.m);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // A concurrent duplicate landed first; keep its answer (the one already
    // being served) so identical requests stay bit-identical.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= s.capacity) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    s.evictions.fetch_add(1, std::memory_order_relaxed);
    s.evict_counter.add(1);
  }
  s.lru.emplace_front(key, answer);
  s.index.emplace(key, s.lru.begin());
  s.size_gauge.set(static_cast<double>(s.lru.size()));
}

std::size_t SolveCache::size() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  return s.lru.size();
}

std::uint64_t SolveCache::hits() const noexcept {
  return state_->hits.load(std::memory_order_relaxed);
}
std::uint64_t SolveCache::misses() const noexcept {
  return state_->misses.load(std::memory_order_relaxed);
}
std::uint64_t SolveCache::evicted() const noexcept {
  return state_->evictions.load(std::memory_order_relaxed);
}

}  // namespace tags::serve
