#include "obs/level.hpp"

#include <cstdlib>

#include "obs/numio.hpp"

namespace tags::obs {

std::optional<Level> parse_level(std::string_view text) noexcept {
  if (text == "off") return Level::kOff;
  if (text == "metrics") return Level::kMetrics;
  const std::optional<long long> v = numio::parse_int<long long>(text);
  if (!v) return std::nullopt;
  return *v <= 0 ? Level::kOff : Level::kMetrics;
}

namespace detail {

int init_level_from_env() noexcept {
  const char* env = std::getenv("TAGS_OBS_LEVEL");
  const std::optional<Level> parsed =
      env != nullptr ? parse_level(env) : std::nullopt;
  return static_cast<int>(parsed.value_or(Level::kMetrics));
}

}  // namespace detail

}  // namespace tags::obs
