#include "core/sweep.hpp"

#include <algorithm>

namespace tags::core {

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  if (count == 1) {
    out.push_back(lo);
    return out;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(count - 1));
  }
  return out;
}

std::size_t default_shard_size(std::size_t n_points) noexcept {
  if (n_points == 0) return 1;
  // Aim for ~16 shards (plenty of stealing slack for an 8-way pool) but
  // never shards of fewer than 2 points: a 1-point shard is all cold
  // solve, which wastes the warm-start chain entirely.
  constexpr std::size_t kTargetShards = 16;
  const std::size_t size = (n_points + kTargetShards - 1) / kTargetShards;
  return std::max<std::size_t>(size, 2);
}

std::vector<ShardRange> plan_shards(std::size_t n_points, std::size_t shard_size) {
  if (shard_size == 0) shard_size = default_shard_size(n_points);
  std::vector<ShardRange> shards;
  shards.reserve(n_points / shard_size + 1);
  for (std::size_t begin = 0; begin < n_points; begin += shard_size) {
    shards.push_back({begin, std::min(begin + shard_size, n_points)});
  }
  return shards;
}

}  // namespace tags::core
