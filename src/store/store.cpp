#include "store/store.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/numio.hpp"
#include "store/codec.hpp"
#include "store/crc32c.hpp"
#include "store/io.hpp"
#include "store/log.hpp"

namespace tags::store {

namespace {

constexpr char kIndexMagic[8] = {'T', 'S', 'I', 'D', 'X', '0', '1', '\0'};
constexpr std::uint32_t kIndexFormatVersion = 1;

struct KeyHash {
  std::size_t operator()(const RecordKey& k) const noexcept {
    // FNV-1a over the key fields (the store's local copy of the hash).
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    mix(static_cast<std::uint64_t>(k.kind));
    mix(k.name.size());
    for (const char c : k.name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    mix(k.structure);
    mix(k.point);
    return static_cast<std::size_t>(h);
  }
};

struct IndexSegment {
  std::uint64_t log_bytes = 0;
  std::vector<std::pair<RecordKey, std::uint64_t>> entries;  ///< key -> offset
};

std::vector<std::uint8_t> encode_index(const IndexSegment& seg) {
  BufWriter body;
  body.put_u32(kIndexFormatVersion);
  body.put_u64(seg.log_bytes);
  body.put_u32(static_cast<std::uint32_t>(seg.entries.size()));
  for (const auto& [key, offset] : seg.entries) {
    body.put_u16(static_cast<std::uint16_t>(key.kind));
    body.put_str(key.name);
    body.put_u64(key.structure);
    body.put_u64(key.point);
    body.put_u64(offset);
  }
  BufWriter file;
  for (const char c : kIndexMagic) file.put_u8(static_cast<std::uint8_t>(c));
  const auto& b = body.bytes();
  file.put_u32(crc32c(b.data(), b.size()));
  for (const std::uint8_t byte : b) file.put_u8(byte);
  return std::move(file).take();
}

std::optional<IndexSegment> decode_index(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(kIndexMagic) + 4) return std::nullopt;
  for (std::size_t i = 0; i < sizeof(kIndexMagic); ++i) {
    if (bytes[i] != static_cast<std::uint8_t>(kIndexMagic[i])) return std::nullopt;
  }
  BufReader head(bytes.subspan(sizeof(kIndexMagic), 4));
  const std::uint32_t crc = head.get_u32();
  const auto body = bytes.subspan(sizeof(kIndexMagic) + 4);
  if (crc32c(body.data(), body.size()) != crc) return std::nullopt;
  BufReader rd(body);
  if (rd.get_u32() != kIndexFormatVersion) return std::nullopt;
  IndexSegment seg;
  seg.log_bytes = rd.get_u64();
  const std::uint32_t count = rd.get_u32();
  seg.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RecordKey key;
    key.kind = static_cast<RecordKind>(rd.get_u16());
    key.name = rd.get_str();
    key.structure = rd.get_u64();
    key.point = rd.get_u64();
    const std::uint64_t offset = rd.get_u64();
    seg.entries.emplace_back(std::move(key), offset);
  }
  if (!rd.ok() || !rd.at_end()) return std::nullopt;
  return seg;
}

/// Strict integer environment knob: a malformed value (trailing garbage,
/// overflow, not a number at all) keeps the fallback and bumps
/// store.env_parse_errors instead of silently becoming whatever atoi
/// truncated it to ("8GB" used to read as 8, "oops" as 0).
int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<int> parsed = numio::parse_int<int>(v);
  if (!parsed) {
    obs::count("store.env_parse_errors");
    return fallback;
  }
  return *parsed;
}

}  // namespace

struct SolveStore::State {
  explicit State(std::string dir, StoreOptions opts)
      : dir(std::move(dir)),
        opts(opts),
        appended_counter("store.records_appended"),
        commits_counter("store.commits"),
        dropped_counter("store.records_dropped"),
        recovered_counter("store.records_recovered"),
        decode_failed_counter("store.decode_failures"),
        lookups_counter("store.lookups"),
        lookup_hits_counter("store.lookup_hits"),
        records_gauge("store.records"),
        bytes_gauge("store.bytes") {}

  const std::string dir;
  StoreOptions opts;

  mutable std::mutex m;
  std::unique_ptr<LogFile> log;

  /// key -> offset of the latest record (committed or pending).
  std::unordered_map<RecordKey, std::uint64_t, KeyHash> index;
  /// Every committed record's (offset, key), in append order — the scan view.
  std::vector<std::pair<std::uint64_t, RecordKey>> history;
  /// Appended but not yet committed, keyed by the offset append() assigned.
  std::unordered_map<std::uint64_t, Record> pending;
  std::vector<std::uint64_t> pending_order;

  StoreStats st;
  int commits_until_crash = -1;

  obs::Counter appended_counter;
  obs::Counter commits_counter;
  obs::Counter dropped_counter;
  obs::Counter recovered_counter;
  obs::Counter decode_failed_counter;
  obs::Counter lookups_counter;
  obs::Counter lookup_hits_counter;
  obs::Gauge records_gauge;
  obs::Gauge bytes_gauge;

  void publish_index_locked() {
    IndexSegment seg;
    seg.log_bytes = log->durable_bytes();
    seg.entries.assign(index.begin(), index.end());
    // Publication failure is tolerated: the index is an accelerator, and
    // the next open rebuilds it from the log.
    (void)atomic_write_file(index_path(dir), encode_index(seg));
  }

  void refresh_gauges_locked() {
    records_gauge.set(static_cast<double>(index.size()));
    bytes_gauge.set(static_cast<double>(log->durable_bytes()));
  }
};

std::string SolveStore::log_path(const std::string& dir) { return dir + "/log.tsl"; }
std::string SolveStore::index_path(const std::string& dir) { return dir + "/index.tsi"; }

SolveStore::SolveStore(std::string dir, StoreOptions opts)
    : state_(std::make_unique<State>(std::move(dir), opts)) {
  State& s = *state_;
  s.opts.crash_after_commits =
      env_int("TAGS_STORE_CRASH_AFTER_COMMITS", s.opts.crash_after_commits);
  s.opts.crash_before_index =
      env_int("TAGS_STORE_CRASH_BEFORE_INDEX", s.opts.crash_before_index ? 1 : 0) != 0;
  s.commits_until_crash = s.opts.crash_after_commits;

  if (!s.opts.read_only) {
    std::error_code ec;
    std::filesystem::create_directories(s.dir, ec);
    if (ec) {
      throw std::runtime_error("store: cannot create directory " + s.dir + ": " +
                               ec.message());
    }
  }

  // Reader fast path: a valid index segment whose watermark matches the
  // log exactly lets us skip the full scan — every record it points at is
  // still CRC-verified at read time. A lagging segment (crash between the
  // log fsync and the index publish) falls back to the scan so readers
  // never miss records the log already made durable.
  if (s.opts.read_only && s.opts.use_index) {
    if (const auto bytes = read_file_bytes(index_path(s.dir))) {
      if (const auto seg = decode_index(*bytes)) {
        auto log = std::make_unique<LogFile>(log_path(s.dir), /*read_only=*/true,
                                             LogFile::FrameFn{});
        if (seg->log_bytes == log->durable_bytes()) {
          s.log = std::move(log);
          for (const auto& [key, offset] : seg->entries) {
            if (offset + kFrameHeaderBytes <= seg->log_bytes) {
              s.index.emplace(key, offset);
              s.history.emplace_back(offset, key);
            }
          }
          std::sort(s.history.begin(), s.history.end(),
                    [](const auto& a, const auto& b) { return a.first < b.first; });
          s.st.index_used = true;
          s.st.live_records = s.index.size();
          s.st.total_records = s.history.size();
          s.st.bytes = s.log->durable_bytes();
          return;
        }
      }
    }
  }

  // Recovery open: scan and verify every frame, decode the surviving
  // records, truncate the log to the committed prefix.
  const auto on_frame = [&s](std::uint64_t offset,
                             std::span<const std::uint8_t> payload) {
    if (const auto record = decode_record(payload)) {
      s.index[record->key] = offset;
      s.history.emplace_back(offset, record->key);
    } else {
      // Frame CRC passed but the record is not parseable (e.g. a future
      // schema version). Skipped, never served.
      ++s.st.decode_failures;
      s.decode_failed_counter.add(1);
    }
  };
  s.log = std::make_unique<LogFile>(log_path(s.dir), s.opts.read_only, on_frame);

  const RecoverStats& rec = s.log->recovery();
  s.st.dropped_events = rec.drop_events;
  s.st.dropped_bytes = rec.dropped_bytes;
  s.st.reinitialized = rec.reinitialized;
  s.st.live_records = s.index.size();
  s.st.total_records = s.history.size();
  s.st.bytes = rec.bytes;
  if (rec.drop_events > 0) s.dropped_counter.add(rec.drop_events);
  if (rec.frames > 0) s.recovered_counter.add(rec.frames);

  // Refresh a stale or missing index segment so readers can trust it.
  if (!s.opts.read_only) {
    const auto existing = read_file_bytes(index_path(s.dir));
    std::optional<IndexSegment> seg;
    if (existing) seg = decode_index(*existing);
    if (!seg || seg->log_bytes != s.log->durable_bytes() ||
        seg->entries.size() != s.index.size()) {
      s.publish_index_locked();
    }
  }
  s.refresh_gauges_locked();
}

SolveStore::~SolveStore() {
  // Buffered-but-uncommitted records die with the handle by design: the
  // durability unit is commit(), and destructors must not fsync surprise
  // batches mid-crash.
}

void SolveStore::append(const Record& r) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  Record stored = r;
  stored.payload_digest = 0;  // recomputed by encode_record
  const auto bytes = encode_record(stored);
  const std::uint64_t offset = s.log->append(bytes);
  s.index[stored.key] = offset;
  s.pending.emplace(offset, std::move(stored));
  s.pending_order.push_back(offset);
  ++s.st.appended;
  s.appended_counter.add(1);
}

void SolveStore::commit() {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  if (s.pending_order.empty()) return;
  s.log->commit();
  ++s.st.commits;
  s.commits_counter.add(1);

  const bool crash_now =
      s.commits_until_crash >= 0 && --s.commits_until_crash < 0;
  if (crash_now && s.opts.crash_before_index) {
    // Fault injection: the log batch is durable, the index is not — the
    // reopen must recover from the log alone.
    std::raise(SIGKILL);
  }

  for (const std::uint64_t offset : s.pending_order) {
    s.history.emplace_back(offset, s.pending.at(offset).key);
  }
  s.pending.clear();
  s.pending_order.clear();
  s.st.live_records = s.index.size();
  s.st.total_records = s.history.size();
  s.st.bytes = s.log->durable_bytes();
  s.publish_index_locked();
  s.refresh_gauges_locked();

  if (crash_now) std::raise(SIGKILL);
}

void SolveStore::append_commit(const Record& r) {
  append(r);
  commit();
}

std::optional<Record> SolveStore::lookup(const RecordKey& key) const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  s.lookups_counter.add(1);
  const auto it = s.index.find(key);
  if (it == s.index.end()) return std::nullopt;
  if (const auto pending = s.pending.find(it->second); pending != s.pending.end()) {
    s.lookup_hits_counter.add(1);
    return pending->second;
  }
  if (const auto payload = s.log->read_frame(it->second)) {
    if (auto record = decode_record(*payload)) {
      s.lookup_hits_counter.add(1);
      return record;
    }
  }
  // The frame rotted on disk after open (or the index pointed at garbage):
  // report a miss, never corrupt bytes.
  s.dropped_counter.add(1);
  return std::nullopt;
}

void SolveStore::scan(const std::function<bool(const Record&)>& fn) const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  for (const auto& [offset, key] : s.history) {
    const auto payload = s.log->read_frame(offset);
    if (!payload) {
      s.dropped_counter.add(1);
      continue;
    }
    auto record = decode_record(*payload);
    if (!record) {
      s.dropped_counter.add(1);
      continue;
    }
    if (!fn(*record)) return;
  }
}

std::size_t SolveStore::size() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  return s.index.size();
}

StoreStats SolveStore::stats() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.m);
  return s.st;
}

const std::string& SolveStore::directory() const noexcept { return state_->dir; }

}  // namespace tags::store
