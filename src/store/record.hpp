// The solve record: one durable unit of the results store. The envelope
// carries everything a query needs without decoding the payload — schema
// version, the (kind, name, structure, point) key, the payload digest, a
// certificate summary, timings, and a warm-start telemetry snapshot — and
// the payload is an opaque byte string encoded by the owning layer
// (serve::encode_answer for answers, the metrics codec in core for sweep
// shards, the gauge snapshot in bench_util for bench history).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace tags::store {

/// Record-envelope schema. Bumped on any change to encode_record's layout;
/// decoders reject versions they do not know rather than misparse. Version
/// 2 added the fifth warm-start counter; version-1 records still decode,
/// with that counter 0.
inline constexpr std::uint32_t kRecordSchemaVersion = 2;

enum class RecordKind : std::uint16_t {
  kAnswer = 1,  ///< one served/one-shot scenario answer (payload: serve codec)
  kShard = 2,   ///< one committed sweep shard (payload: metrics/row codec)
  kBench = 3,   ///< one bench run's gauge snapshot (payload: name/value pairs)
};

[[nodiscard]] const char* to_string(RecordKind kind) noexcept;

/// Point-lookup key. The field meaning depends on the kind:
///  kAnswer: name = policy wire name, structure = ctmc::structure_digest,
///           point = core::rate_digest of the scenario.
///  kShard:  name = sweep name, structure = the sweep digest (grid + base
///           parameters + shard plan), point = shard index.
///  kBench:  name = bench id, structure/point = 0 (history read via scan).
struct RecordKey {
  RecordKind kind = RecordKind::kAnswer;
  std::string name;
  std::uint64_t structure = 0;
  std::uint64_t point = 0;

  bool operator==(const RecordKey&) const = default;
};

/// What the solver certified about the recorded solution (a compressed
/// linalg::Certificate — enough for store_query to triage a record without
/// decoding pi).
struct CertSummary {
  bool certified = false;  ///< linalg::Certificate::ok()
  bool converged = false;
  double residual = 0.0;    ///< recomputed ||pi Q||_inf
  double mass_error = 0.0;  ///< |1 - sum(pi)|
  double condition = 0.0;   ///< cond_1 estimate (0: not computed)
};

/// Warm-start telemetry snapshot (hits, misses, cleared, uncertified,
/// predicted) — journalled per shard so a resumed sweep reports counters
/// identical to the uninterrupted run.
using WarmCounters = std::array<std::uint64_t, 5>;

struct Record {
  RecordKey key;
  CertSummary cert;
  double solve_ms = 0.0;            ///< wall time the payload cost to compute
  WarmCounters warm{};              ///< telemetry snapshot
  std::uint64_t payload_digest = 0; ///< FNV-1a over the payload bytes
  std::vector<std::uint8_t> payload;
};

/// Envelope encoding (schema version first; see DESIGN.md "Durable
/// solve-record store" for the byte layout). The CRC32C frame around the
/// encoded record is the log layer's job, not this one's.
[[nodiscard]] std::vector<std::uint8_t> encode_record(const Record& r);

/// Decode one record payload. nullopt on any structural problem: unknown
/// schema version, truncated fields, payload-digest mismatch, trailing
/// bytes. A frame whose CRC passed can still fail here (defence in depth);
/// callers treat both identically as corruption.
[[nodiscard]] std::optional<Record> decode_record(std::span<const std::uint8_t> bytes);

}  // namespace tags::store
