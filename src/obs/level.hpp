// Global observability level, read once from the TAGS_OBS_LEVEL environment
// variable and adjustable at runtime (tests, CLI flags).
//
//   0  off      — instrumentation short-circuits to nothing
//   1  metrics  — counters/gauges/histograms, spans (records and per-name
//                timers) + solve log (default)
#pragma once

#include <atomic>
#include <optional>
#include <string_view>

namespace tags::obs {

enum class Level : int { kOff = 0, kMetrics = 1 };

/// Reads a level the way TAGS_OBS_LEVEL and the tools' --obs-level spell it:
/// "off", "metrics", or a whole decimal integer, where <= 0 is off and >= 1
/// is metrics. Anything else (empty, "garbage", "1x") is nullopt.
[[nodiscard]] std::optional<Level> parse_level(std::string_view text) noexcept;

namespace detail {

/// TAGS_OBS_LEVEL through parse_level; unset or malformed keeps the
/// default, metrics.
int init_level_from_env() noexcept;

inline std::atomic<int>& level_storage() noexcept {
  static std::atomic<int> level{init_level_from_env()};
  return level;
}

}  // namespace detail

[[nodiscard]] inline Level level() noexcept {
  return static_cast<Level>(detail::level_storage().load(std::memory_order_relaxed));
}

inline void set_level(Level l) noexcept {
  detail::level_storage().store(static_cast<int>(l), std::memory_order_relaxed);
}

/// True when counters and spans should record (level >= metrics).
[[nodiscard]] inline bool metrics_on() noexcept {
  return detail::level_storage().load(std::memory_order_relaxed) >=
         static_cast<int>(Level::kMetrics);
}

}  // namespace tags::obs
