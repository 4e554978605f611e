#include "store/record.hpp"

#include "store/codec.hpp"

namespace tags::store {

namespace {

// Local FNV-1a (the store sits below ctmc/digest.hpp in the link graph, so
// it carries its own copy of the 9-line hash rather than a dependency).
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

const char* to_string(RecordKind kind) noexcept {
  switch (kind) {
    case RecordKind::kAnswer: return "answer";
    case RecordKind::kShard: return "shard";
    case RecordKind::kBench: return "bench";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_record(const Record& r) {
  BufWriter w;
  w.put_u32(kRecordSchemaVersion);
  w.put_u16(static_cast<std::uint16_t>(r.key.kind));
  w.put_str(r.key.name);
  w.put_u64(r.key.structure);
  w.put_u64(r.key.point);
  w.put_u8(r.cert.certified ? 1 : 0);
  w.put_u8(r.cert.converged ? 1 : 0);
  w.put_f64(r.cert.residual);
  w.put_f64(r.cert.mass_error);
  w.put_f64(r.cert.condition);
  w.put_f64(r.solve_ms);
  for (const std::uint64_t c : r.warm) w.put_u64(c);
  // The digest is always recomputed at encode time so a record cannot be
  // written with a stale digest; decode_record verifies it.
  w.put_u64(fnv1a(r.payload));
  w.put_bytes(r.payload);
  return std::move(w).take();
}

std::optional<Record> decode_record(std::span<const std::uint8_t> bytes) {
  BufReader rd(bytes);
  const std::uint32_t schema = rd.get_u32();
  if (schema != 1 && schema != kRecordSchemaVersion) return std::nullopt;
  Record r;
  const std::uint16_t kind = rd.get_u16();
  if (kind != static_cast<std::uint16_t>(RecordKind::kAnswer) &&
      kind != static_cast<std::uint16_t>(RecordKind::kShard) &&
      kind != static_cast<std::uint16_t>(RecordKind::kBench)) {
    return std::nullopt;
  }
  r.key.kind = static_cast<RecordKind>(kind);
  r.key.name = rd.get_str();
  r.key.structure = rd.get_u64();
  r.key.point = rd.get_u64();
  r.cert.certified = rd.get_u8() != 0;
  r.cert.converged = rd.get_u8() != 0;
  r.cert.residual = rd.get_f64();
  r.cert.mass_error = rd.get_f64();
  r.cert.condition = rd.get_f64();
  r.solve_ms = rd.get_f64();
  const std::size_t counters = schema == 1 ? 4 : r.warm.size();
  for (std::size_t i = 0; i < counters; ++i) r.warm[i] = rd.get_u64();
  r.payload_digest = rd.get_u64();
  r.payload = rd.get_bytes();
  if (!rd.ok() || !rd.at_end()) return std::nullopt;
  if (fnv1a(r.payload) != r.payload_digest) return std::nullopt;
  return r;
}

}  // namespace tags::store
