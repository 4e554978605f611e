// Global observability level, read once from the TAGS_OBS_LEVEL environment
// variable and adjustable at runtime (tests, CLI flags).
//
//   0  off      — instrumentation short-circuits to nothing
//   1  metrics  — counters/gauges/histograms, spans (records and per-name
//                timers) + solve log (default)
//   2  trace    — additionally forward events to the installed TraceSink
//   3  debug    — like trace, with sampling forced to every event
//
// When the library is configured with TAGS_ENABLE_OBS=OFF the whole API
// collapses to constexpr no-ops so call sites compile out entirely.
#pragma once

#if TAGS_OBS_ENABLED
#include <atomic>
#endif

namespace tags::obs {

enum class Level : int { kOff = 0, kMetrics = 1, kTrace = 2, kDebug = 3 };

#if TAGS_OBS_ENABLED

namespace detail {

/// Parses TAGS_OBS_LEVEL ("0".."3", "off", "metrics", "trace", "debug").
int init_level_from_env() noexcept;

inline std::atomic<int>& level_storage() noexcept {
  static std::atomic<int> level{init_level_from_env()};
  return level;
}

/// Set iff a trace sink is installed; combined with the level for the fast
/// "should I build this event at all" check.
inline std::atomic<bool>& sink_installed() noexcept {
  static std::atomic<bool> installed{false};
  return installed;
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

/// True when trace events should be built and forwarded: requires both
/// level >= trace and an installed sink.
[[nodiscard]] inline bool tracing_on() noexcept {
  return detail::level_storage().load(std::memory_order_relaxed) >=
             static_cast<int>(Level::kTrace) &&
         detail::sink_installed().load(std::memory_order_relaxed);
}

#else  // TAGS_OBS_ENABLED

[[nodiscard]] inline constexpr Level level() noexcept { return Level::kOff; }
inline constexpr void set_level(Level) noexcept {}
[[nodiscard]] inline constexpr bool metrics_on() noexcept { return false; }
[[nodiscard]] inline constexpr bool tracing_on() noexcept { return false; }

#endif  // TAGS_OBS_ENABLED

}  // namespace tags::obs
