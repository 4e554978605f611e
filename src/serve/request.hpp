// The tags_server line protocol: newline-delimited JSON, one message per
// line, in either direction. Requests name an operation; solve requests
// carry a core::ScenarioRequest (the same scenario vocabulary the figure
// binaries evaluate), an optional deadline, and a priority class. The
// deterministic payload of a solve response — everything derived from the
// scenario alone, never from server state or timing — is grouped under a
// "result" object so byte-identity between a served answer and the
// one-shot path can be checked by comparing that object verbatim.
//
// Documented in DESIGN.md "The analysis server"; exercised end-to-end by
// tools/serve_smoke.py.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/scenario.hpp"
#include "models/metrics.hpp"

namespace tags::serve {

enum class RequestOp { kSolve, kStats, kPing, kShutdown };

[[nodiscard]] std::string_view to_string(RequestOp op) noexcept;

/// Priority classes, rippled-JobQueue style: higher classes are served
/// first under load, and under overload a high-priority submission may
/// displace a queued low-priority job rather than being shed itself.
enum class Priority : int { kLow = 0, kNormal = 1, kHigh = 2 };

struct Request {
  RequestOp op = RequestOp::kSolve;
  std::string id;  ///< echoed verbatim in the response (client correlation)
  core::ScenarioRequest scenario;  ///< kSolve only
  /// Time budget in milliseconds from receipt; the job is shed (never
  /// silently dropped) once exceeded while queued. Negative: no deadline.
  double deadline_ms = -1.0;
  Priority priority = Priority::kNormal;
  bool want_pi = false;  ///< include the full stationary vector in the response
};

/// Parse one protocol line. Returns nullopt and fills *error on any
/// malformed or unknown field — the protocol is strict so client typos
/// surface as errors, not silently-defaulted parameters.
[[nodiscard]] std::optional<Request> parse_request(std::string_view line,
                                                   std::string* error);

/// Serialize a request to one protocol line (no trailing newline).
[[nodiscard]] std::string serialize_request(const Request& req);

/// The deterministic product of one solve: a pure function of the
/// scenario (given a fixed solver configuration). Shared between the
/// engine's cache and the response serializer.
struct Answer {
  core::ScenarioRequest scenario;
  models::Metrics metrics;
  linalg::Vec pi;                      ///< empty for closed-form policies
  std::uint64_t structure_digest = 0;  ///< frozen-sparsity digest (0: closed form)
  std::uint64_t rate_digest = 0;       ///< rate-point digest
  std::uint64_t pi_digest = 0;         ///< FNV-1a over the pi bytes
  std::int64_t n_states = 0;
  bool certified = false;
  bool converged = false;
  std::string method;  ///< solver that produced pi ("closed-form" when none)
};

/// Server-side bookkeeping for one answered request (volatile: excluded
/// from the "result" object by construction).
struct Served {
  bool cached = false;   ///< answered from the solve cache
  bool warm = false;     ///< solved warm-started from a previous pi
  double queue_ms = 0.0;
  double solve_ms = 0.0;
};

/// A point-in-time view of the server counters, for the stats op. All
/// functional (maintained by the serve layer itself), so the endpoint
/// works at TAGS_OBS_LEVEL=0 too.
struct StatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evicted = 0;
  std::uint64_t jobs_shed = 0;
  std::uint64_t deadline_missed = 0;
  std::size_t cache_size = 0;
  std::size_t queue_depth = 0;
  std::size_t slots = 0;  ///< warm-start model slots alive
  unsigned threads = 0;
};

// Response serializers (one protocol line, no trailing newline).
[[nodiscard]] std::string serialize_answer(const std::string& id, const Answer& answer,
                                           const Served& served, bool want_pi);
enum class ShedReason { kQueueFull, kDeadline };
[[nodiscard]] std::string_view to_string(ShedReason reason) noexcept;
[[nodiscard]] std::string serialize_shed(const std::string& id, ShedReason reason);
[[nodiscard]] std::string serialize_error(const std::string& id,
                                          const std::string& error);
[[nodiscard]] std::string serialize_stats(const std::string& id,
                                          const StatsSnapshot& stats);
[[nodiscard]] std::string serialize_ack(const std::string& id, RequestOp op);

}  // namespace tags::serve
