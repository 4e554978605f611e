// The analysis engine behind tags_server: a solve cache in front of a
// prioritized job queue draining into the work-stealing core::ThreadPool,
// with one warm-start ScenarioSlot per model structure. Transport-agnostic
// — the socket server and any in-process test drive it identically through
// submit(), and every response reaches the caller through the responder
// callback exactly once (answer, shed, or error). At most kMaxSlots idle
// slots are kept.
//
// Caching contract: repeated identical requests are answered bit-for-bit
// identically (the first computed stationary vector is the one every later
// hit serves), and a fresh engine's first solve of a scenario equals the
// one-shot path (evaluate_now) byte-for-byte, because both run a cold
// ScenarioSlot::evaluate with the same solver options.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "ctmc/steady_state.hpp"
#include "serve/request.hpp"

namespace tags::serve {

/// Warm-start slots the engine keeps. Each holds a model's generator, its
/// cached transpose and Gauss-Seidel copy and the warm-start line: about
/// 2 MB for a 5751-state chain. Past this many, the least recently used
/// slot that no worker holds is evicted, and a later request for its
/// structure starts a cold slot.
inline constexpr std::size_t kMaxSlots = 8;

struct EngineOptions {
  unsigned threads = 0;             ///< solver workers; 0: ThreadPool default
  std::size_t cache_capacity = 256; ///< retained answers (LRU); 0 disables
  std::size_t queue_depth = 64;     ///< admission bound before shedding
  ctmc::SteadyStateOptions solve{}; ///< solver configuration for every request
  /// Durable store directory; empty disables persistence. On construction
  /// the engine warm-loads every valid kAnswer record into the solve cache
  /// (so a restarted server answers known scenarios cached, byte-identical
  /// to the run that computed them), and every fresh solve is committed
  /// back before its response is sent.
  std::string store_path{};
};

class Engine {
 public:
  /// Receives one serialized protocol line per submitted request.
  using Responder = std::function<void(std::string line)>;

  explicit Engine(EngineOptions opts = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submit one solve request. The responder is invoked exactly once: from
  /// the calling thread on a cache hit or admission-time shed, from a pool
  /// worker otherwise. Responders must be thread-safe against other
  /// responses on the same connection.
  void submit(Request req, Responder respond);

  /// The one-shot path (tags_client --oneshot, figure drivers): a fresh
  /// slot, a cold solve, the same Answer construction the server performs.
  [[nodiscard]] static Answer evaluate_now(const core::ScenarioRequest& scenario,
                                           const ctmc::SteadyStateOptions& opts = {});

  [[nodiscard]] StatsSnapshot stats() const;

  /// Block until every admitted job has completed or been shed. Callers
  /// stop submitting first (the server closes its listener before this).
  void drain();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace tags::serve
