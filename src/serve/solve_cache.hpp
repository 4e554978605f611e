// Thread-safe LRU cache of solved scenarios, keyed on (policy name,
// rate-point digest). The rate digest covers every parameter the policy
// reads, structural ones included, so the key names one chain and one
// rate point. The value is the full deterministic Answer — metrics,
// stationary vector, digests — so a hit is served without touching a model
// or the thread pool, and repeated identical requests are bit-identical by
// construction: the first computed pi is the one every later hit returns.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "serve/request.hpp"

namespace tags::serve {

struct CacheKey {
  std::string model;        ///< policy wire name
  std::uint64_t rates = 0;  ///< core::rate_digest of the request
  bool operator==(const CacheKey&) const = default;
};

class SolveCache {
 public:
  /// `capacity` bounds the number of retained answers; 0 disables caching
  /// (every lookup misses, inserts are dropped).
  explicit SolveCache(std::size_t capacity);
  ~SolveCache();

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Lookup; a hit refreshes recency. Counts serve.cache_hit / _miss when
  /// `count` is true — callers that probe the same request twice (submit
  /// fast path, then the dedupe re-check under the slot lock) pass false on
  /// the second probe so each request is counted exactly once.
  [[nodiscard]] std::optional<Answer> lookup(const CacheKey& key, bool count = true);

  /// Insert (or overwrite — idempotent for identical keys, which is what
  /// concurrent duplicate requests produce). Evicts the least-recently-used
  /// answer when full, counting serve.cache_evicted.
  void insert(const CacheKey& key, const Answer& answer);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const noexcept;
  [[nodiscard]] std::uint64_t misses() const noexcept;
  [[nodiscard]] std::uint64_t evicted() const noexcept;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace tags::serve
