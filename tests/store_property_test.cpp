// Property battery for the solve-record store: randomized append /
// commit / reopen / lookup sequences must round-trip every record
// bit-identically, the index fast path must agree with the full scan, and
// the documented edge cases (empty log, single record, missing / stale /
// corrupt index segments, uncommitted tails) must behave exactly as the
// durability contract in store/store.hpp says.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "store/codec.hpp"
#include "store/record.hpp"
#include "store/store.hpp"

namespace {

using namespace tags;
using store::Record;
using store::RecordKey;
using store::RecordKind;
using store::SolveStore;
using store::StoreOptions;

std::string fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / ("tags_store_prop_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

bool record_eq(const Record& a, const Record& b) {
  return store::encode_record(a) == store::encode_record(b);
}

/// Key ordering for the reference model (RecordKey itself only defines ==).
struct KeyLess {
  bool operator()(const RecordKey& a, const RecordKey& b) const {
    return std::tie(a.kind, a.name, a.structure, a.point) <
           std::tie(b.kind, b.name, b.structure, b.point);
  }
};

Record random_record(std::mt19937& rng) {
  static const char* kNames[] = {"alpha", "beta", "gamma", "delta"};
  static const RecordKind kKinds[] = {RecordKind::kAnswer, RecordKind::kShard,
                                      RecordKind::kBench};
  Record r;
  // A small key pool so later appends supersede earlier ones.
  r.key.kind = kKinds[rng() % 3];
  r.key.name = kNames[rng() % 4];
  r.key.structure = rng() % 4;
  r.key.point = rng() % 4;
  std::uniform_real_distribution<double> real(-1e6, 1e6);
  r.cert = {(rng() & 1) != 0, (rng() & 1) != 0, real(rng), real(rng), real(rng)};
  r.solve_ms = real(rng);
  r.warm = {rng(), rng(), rng(), rng(), rng()};
  r.payload.resize(rng() % 512);
  for (auto& b : r.payload) b = static_cast<std::uint8_t>(rng() & 0xff);
  return r;
}

/// Reference model the store is checked against: latest record per key
/// plus the full append history.
struct Model {
  std::map<RecordKey, Record, KeyLess> latest;
  std::vector<Record> history;

  void put(const Record& r) {
    latest.insert_or_assign(r.key, r);
    history.push_back(r);
  }
};

/// The latest version of each key, in append order — what an indexed open
/// (whose view is reconstructed from the key -> latest-offset segment)
/// reports as its history.
std::vector<Record> live_in_order(const Model& m) {
  std::vector<Record> out;
  for (std::size_t p = 0; p < m.history.size(); ++p) {
    bool superseded = false;
    for (std::size_t q = p + 1; q < m.history.size() && !superseded; ++q) {
      superseded = m.history[q].key == m.history[p].key;
    }
    if (!superseded) out.push_back(m.history[p]);
  }
  return out;
}

void expect_lookups_match(SolveStore& s, const Model& m) {
  EXPECT_EQ(s.size(), m.latest.size());
  for (const auto& [key, want] : m.latest) {
    const auto got = s.lookup(key);
    ASSERT_TRUE(got.has_value()) << "key " << want.key.name << "/" << key.point;
    EXPECT_TRUE(record_eq(*got, want));
  }
}

/// What an index-served reader must report: every live record, bit-exact,
/// with scan() replaying the live records in append order (the superseded
/// history needs a full-scan open).
void expect_matches_live(SolveStore& s, const Model& m) {
  expect_lookups_match(s, m);
  const auto live = live_in_order(m);
  EXPECT_EQ(s.stats().total_records, live.size());
  std::size_t i = 0;
  s.scan([&](const Record& r) {
    EXPECT_LT(i, live.size());
    if (i < live.size()) {
      EXPECT_TRUE(record_eq(r, live[i]));
    }
    ++i;
    return true;
  });
  EXPECT_EQ(i, live.size());
}

void expect_matches_model(SolveStore& s, const Model& m) {
  expect_lookups_match(s, m);
  EXPECT_EQ(s.stats().total_records, m.history.size());
  // scan() replays the history in append order, superseded records included.
  std::size_t i = 0;
  s.scan([&](const Record& r) {
    EXPECT_LT(i, m.history.size());
    if (i < m.history.size()) {
      EXPECT_TRUE(record_eq(r, m.history[i]));
    }
    ++i;
    return true;
  });
  EXPECT_EQ(i, m.history.size());
}

TEST(StoreProperty, RandomizedAppendReopenLookupRoundTrips) {
  std::mt19937 rng(0xc0ffee);
  const auto dir = fresh_dir("roundtrip");
  Model model;
  auto s = std::make_unique<SolveStore>(dir);

  for (int step = 0; step < 200; ++step) {
    const auto batch = 1 + rng() % 4;
    for (std::uint32_t i = 0; i < batch; ++i) {
      const Record r = random_record(rng);
      s->append(r);
      model.put(r);
      // Pending records are visible to the handle that buffered them.
      const auto got = s->lookup(r.key);
      ASSERT_TRUE(got.has_value());
      EXPECT_TRUE(record_eq(*got, r));
    }
    s->commit();
    if (rng() % 4 == 0) {
      s.reset();  // close...
      s = std::make_unique<SolveStore>(dir);  // ...and recover
      EXPECT_EQ(s->stats().dropped_events, 0u);
      EXPECT_EQ(s->stats().decode_failures, 0u);
    }
    if (rng() % 8 == 0) expect_matches_model(*s, model);
  }
  s.reset();

  SolveStore final_open(dir);
  expect_matches_model(final_open, model);
}

TEST(StoreProperty, EmptyLogRoundTrips) {
  const auto dir = fresh_dir("empty");
  { SolveStore s(dir); }  // create, commit nothing
  SolveStore s(dir);
  EXPECT_EQ(s.size(), 0u);
  const auto st = s.stats();
  EXPECT_EQ(st.total_records, 0u);
  EXPECT_EQ(st.dropped_events, 0u);
  EXPECT_FALSE(st.reinitialized);
  EXPECT_FALSE(s.lookup({RecordKind::kAnswer, "absent", 0, 0}).has_value());
  std::size_t scanned = 0;
  s.scan([&](const Record&) {
    ++scanned;
    return true;
  });
  EXPECT_EQ(scanned, 0u);
}

TEST(StoreProperty, SingleRecordSurvivesEveryReopenMode) {
  std::mt19937 rng(7);
  const auto dir = fresh_dir("single");
  const Record r = random_record(rng);
  {
    SolveStore s(dir);
    s.append_commit(r);
  }
  for (const bool use_index : {false, true}) {
    SolveStore s(dir, StoreOptions{.read_only = true, .use_index = use_index});
    EXPECT_EQ(s.stats().index_used, use_index);
    EXPECT_EQ(s.size(), 1u);
    const auto got = s.lookup(r.key);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(record_eq(*got, r));
  }
}

TEST(StoreProperty, UncommittedTailDiesWithTheHandle) {
  std::mt19937 rng(11);
  const auto dir = fresh_dir("uncommitted");
  const Record durable = random_record(rng);
  Record pending = random_record(rng);
  pending.key.name = "pending_only";
  {
    SolveStore s(dir);
    s.append_commit(durable);
    s.append(pending);  // buffered, never committed
    ASSERT_TRUE(s.lookup(pending.key).has_value());
  }
  SolveStore s(dir);
  EXPECT_EQ(s.stats().total_records, 1u);
  EXPECT_TRUE(s.lookup(durable.key).has_value());
  EXPECT_FALSE(s.lookup(pending.key).has_value());
}

/// Build a store of random records; return the model it must match.
Model seed_random(const std::string& dir, std::uint32_t seed, int n) {
  std::mt19937 rng(seed);
  Model model;
  SolveStore s(dir);
  for (int i = 0; i < n; ++i) {
    const Record r = random_record(rng);
    s.append(r);
    model.put(r);
    if (rng() % 3 == 0) s.commit();
  }
  s.commit();
  return model;
}

TEST(StoreProperty, IndexFastPathAgreesWithFullScan) {
  const auto dir = fresh_dir("index_agree");
  const Model model = seed_random(dir, 42, 60);

  SolveStore indexed(dir, StoreOptions{.read_only = true, .use_index = true});
  SolveStore scanned(dir, StoreOptions{.read_only = true, .use_index = false});
  EXPECT_TRUE(indexed.stats().index_used);
  EXPECT_FALSE(scanned.stats().index_used);
  // The indexed open serves the live view (the segment maps each key to
  // its latest record); the scan open additionally replays the superseded
  // history. Point lookups must agree bit-for-bit between the two.
  expect_matches_live(indexed, model);
  expect_matches_model(scanned, model);
}

TEST(StoreProperty, MissingIndexSegmentFallsBackToScan) {
  const auto dir = fresh_dir("index_missing");
  const Model model = seed_random(dir, 43, 30);
  std::filesystem::remove(SolveStore::index_path(dir));

  SolveStore s(dir, StoreOptions{.read_only = true, .use_index = true});
  EXPECT_FALSE(s.stats().index_used);
  expect_matches_model(s, model);
}

TEST(StoreProperty, StaleIndexSegmentFallsBackToScan) {
  const auto dir = fresh_dir("index_stale");
  Model model = seed_random(dir, 44, 20);

  // Save the current segment, commit more records, restore the old
  // segment: its watermark now lags the log — the index-lags-log crash
  // window. The reader must fall back and still see everything.
  const auto stale = SolveStore::index_path(dir) + ".stale";
  std::filesystem::copy_file(SolveStore::index_path(dir), stale);
  {
    std::mt19937 rng(45);
    SolveStore s(dir);
    for (int i = 0; i < 5; ++i) {
      Record r = random_record(rng);
      r.key.name = "post_stale";
      s.append(r);
      model.put(r);
    }
    s.commit();
  }
  std::filesystem::rename(stale, SolveStore::index_path(dir));

  SolveStore s(dir, StoreOptions{.read_only = true, .use_index = true});
  EXPECT_FALSE(s.stats().index_used);
  expect_matches_model(s, model);

  // A writable reopen republishes a current segment; the fast path works
  // again afterwards.
  { SolveStore rewrite(dir); }
  SolveStore fixed(dir, StoreOptions{.read_only = true, .use_index = true});
  EXPECT_TRUE(fixed.stats().index_used);
  expect_matches_live(fixed, model);
}

TEST(StoreProperty, CorruptIndexSegmentFallsBackToScan) {
  const auto dir = fresh_dir("index_corrupt");
  const Model model = seed_random(dir, 46, 15);
  {
    std::fstream f(SolveStore::index_path(dir),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(20);
    const char x = 'X';
    f.write(&x, 1);
  }
  SolveStore s(dir, StoreOptions{.read_only = true, .use_index = true});
  EXPECT_FALSE(s.stats().index_used);
  expect_matches_model(s, model);
}

TEST(StoreProperty, SupersedingKeepsLatestAndHistory) {
  const auto dir = fresh_dir("supersede");
  RecordKey key{RecordKind::kAnswer, "same_key", 9, 9};
  std::vector<Record> versions;
  {
    SolveStore s(dir);
    for (int v = 0; v < 5; ++v) {
      Record r;
      r.key = key;
      r.solve_ms = v;
      r.payload.assign(static_cast<std::size_t>(v + 1),
                       static_cast<std::uint8_t>(v));
      versions.push_back(r);
      s.append_commit(r);
      const auto got = s.lookup(key);
      ASSERT_TRUE(got.has_value());
      EXPECT_TRUE(record_eq(*got, r));  // lookup always sees the latest
    }
  }
  SolveStore s(dir);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.stats().total_records, 5u);
  const auto got = s.lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(record_eq(*got, versions.back()));
  // History preserves every superseded version in order.
  std::size_t i = 0;
  s.scan([&](const Record& r) {
    EXPECT_TRUE(record_eq(r, versions[i]));
    ++i;
    return true;
  });
  EXPECT_EQ(i, versions.size());
}

TEST(StoreProperty, EnvelopeCodecRejectsTampering) {
  std::mt19937 rng(99);
  const Record r = random_record(rng);
  auto bytes = store::encode_record(r);

  const auto decoded = store::decode_record(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(record_eq(*decoded, r));

  // Truncation, trailing bytes, and payload tampering all fail decode
  // (defence in depth behind the frame CRC).
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(store::decode_record(truncated).has_value());

  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(store::decode_record(padded).has_value());

  if (!r.payload.empty()) {
    auto tampered = bytes;
    tampered.back() ^= 0x01;  // last byte is payload (digest must catch it)
    EXPECT_FALSE(store::decode_record(tampered).has_value());
  }
  EXPECT_FALSE(store::decode_record({}).has_value());
}

// A record written before the fifth warm-start counter existed (schema 1,
// four counters) still decodes, with that counter 0; encoding it again
// writes the current schema.
TEST(StoreProperty, SchemaOneRecordDecodesWithoutItsFifthCounter) {
  const std::vector<std::uint8_t> payload{7, 1, 2};
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a, as the envelope uses
  for (const std::uint8_t b : payload) digest = (digest ^ b) * 1099511628211ull;
  store::BufWriter w;
  w.put_u32(1);
  w.put_u16(static_cast<std::uint16_t>(RecordKind::kShard));
  w.put_str("tags_t_sweep");
  w.put_u64(11);
  w.put_u64(3);
  w.put_u8(1);
  w.put_u8(1);
  w.put_f64(1e-12);
  w.put_f64(0.0);
  w.put_f64(0.0);
  w.put_f64(2.5);
  for (const std::uint64_t c : {2u, 1u, 0u, 0u}) w.put_u64(c);
  w.put_u64(digest);
  w.put_bytes(payload);

  const auto decoded = store::decode_record(std::move(w).take());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key.name, "tags_t_sweep");
  EXPECT_EQ(decoded->warm, (store::WarmCounters{2, 1, 0, 0, 0}));
  EXPECT_EQ(decoded->payload, payload);
  const auto again = store::decode_record(store::encode_record(*decoded));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(record_eq(*again, *decoded));
}

}  // namespace
