// The rebind-aware solve cache: LRU mechanics, first-insert-wins
// bit-identity, exactly-once hit/miss accounting, and concurrent access
// (these suites run under ThreadSanitizer in CI — the "Serve" regex term).
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "serve/solve_cache.hpp"

namespace {

using namespace tags;
using serve::Answer;
using serve::CacheKey;
using serve::SolveCache;

Answer answer_with(double marker) {
  Answer a;
  a.metrics.throughput = marker;
  a.pi = {marker};
  a.n_states = 1;
  return a;
}

CacheKey key_of(std::uint64_t rates) { return CacheKey{"tags", rates}; }

TEST(ServeCache, MissThenHit) {
  SolveCache cache(4);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(key_of(1), answer_with(1.0));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pi, (linalg::Vec{1.0}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  // A different rate point is a different key entirely.
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  // So is the same rate digest under a different model.
  EXPECT_FALSE(cache.lookup(CacheKey{"tags_h2", 1}).has_value());
}

TEST(ServeCache, UncountedProbeCountsNothing) {
  SolveCache cache(4);
  EXPECT_FALSE(cache.lookup(key_of(1), /*count=*/false).has_value());
  EXPECT_EQ(cache.misses(), 0u);
  cache.insert(key_of(1), answer_with(1.0));
  ASSERT_TRUE(cache.lookup(key_of(1), /*count=*/false).has_value());
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ServeCache, FirstInsertWinsForIdenticalKeys) {
  SolveCache cache(4);
  cache.insert(key_of(7), answer_with(1.0));
  // A concurrent duplicate computed the "same" answer; whatever bits landed
  // first are the ones every later hit must see.
  cache.insert(key_of(7), answer_with(2.0));
  const auto hit = cache.lookup(key_of(7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pi, (linalg::Vec{1.0}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsed) {
  SolveCache cache(2);
  cache.insert(key_of(1), answer_with(1.0));
  cache.insert(key_of(2), answer_with(2.0));
  // Touch key 1 so key 2 is now the LRU entry.
  ASSERT_TRUE(cache.lookup(key_of(1)).has_value());
  cache.insert(key_of(3), answer_with(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evicted(), 1u);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
}

TEST(ServeCache, ZeroCapacityDisablesCaching) {
  SolveCache cache(0);
  cache.insert(key_of(1), answer_with(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  EXPECT_EQ(cache.evicted(), 0u);
}

TEST(ServeCache, ConcurrentMixedAccessIsSafe) {
  SolveCache cache(8);
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto rates = static_cast<std::uint64_t>((t + i) % 12);
        if (const auto hit = cache.lookup(key_of(rates))) {
          // A served answer is always internally consistent.
          ASSERT_EQ(hit->pi.size(), 1u);
          ASSERT_EQ(hit->pi[0], hit->metrics.throughput);
        } else {
          cache.insert(key_of(rates),
                       answer_with(static_cast<double>(rates)));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads * kIters));
}

// N threads fire the same scenario at one engine; every response's
// deterministic payload must be byte-identical, whether it came from a
// cold solve, the dedupe path, or a cache hit.
TEST(ServeCache, ConcurrentEngineRequestsYieldBitIdenticalPi) {
  serve::EngineOptions opts;
  opts.threads = 4;
  serve::Engine engine(opts);

  serve::Request req;
  req.op = serve::RequestOp::kSolve;
  req.scenario.policy = core::PolicyKind::kTags;
  req.scenario.lambda = 5.0;
  req.scenario.mu = 10.0;
  req.scenario.t = 50.0;
  req.scenario.n = 2;
  req.scenario.k1 = 3;
  req.scenario.k2 = 3;
  req.want_pi = true;

  std::mutex m;
  std::vector<std::string> lines;
  constexpr int kThreads = 8;
  {
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&engine, &req, &m, &lines, t] {
        serve::Request mine = req;
        std::string id(1, 'c');
        id += std::to_string(t);
        mine.id = std::move(id);
        engine.submit(std::move(mine), [&m, &lines](std::string line) {
          std::lock_guard<std::mutex> lock(m);
          lines.push_back(std::move(line));
        });
      });
    }
    for (auto& c : clients) c.join();
  }
  engine.drain();

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads));
  const auto result_part = [](const std::string& line) {
    const auto pos = line.find("\"result\":");
    EXPECT_NE(pos, std::string::npos) << line;
    return line.substr(pos);
  };
  const std::string expected = result_part(lines[0]);
  EXPECT_NE(expected.find("\"pi\":["), std::string::npos);
  for (const auto& line : lines) {
    EXPECT_EQ(result_part(line), expected);
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(stats.cache_misses, 1u);
}

}  // namespace
