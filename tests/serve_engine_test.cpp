// The engine behind tags_server: cache miss-then-hit, byte-identity with
// the one-shot path, warm-started rebinds, deterministic deadline
// shedding, error responses, and LRU eviction — all through the same
// submit() the socket server drives.
#include <gtest/gtest.h>

#include <future>
#include <string>

#include "serve/engine.hpp"
#include "serve/jsonv.hpp"

namespace {

using namespace tags;
using serve::Engine;
using serve::EngineOptions;
using serve::Request;

core::ScenarioRequest small_scenario(double t = 50.0) {
  core::ScenarioRequest s;
  s.policy = core::PolicyKind::kTags;
  s.lambda = 5.0;
  s.mu = 10.0;
  s.t = t;
  s.n = 2;
  s.k1 = 3;
  s.k2 = 3;
  return s;
}

Request solve_request(const core::ScenarioRequest& scenario, std::string id,
                      bool want_pi = false) {
  Request req;
  req.op = serve::RequestOp::kSolve;
  req.id = std::move(id);
  req.scenario = scenario;
  req.want_pi = want_pi;
  return req;
}

std::string submit_and_wait(Engine& engine, Request req) {
  std::promise<std::string> promise;
  auto future = promise.get_future();
  engine.submit(std::move(req), [&promise](std::string line) {
    promise.set_value(std::move(line));
  });
  return future.get();
}

std::string result_part(const std::string& line) {
  const auto pos = line.find("\"result\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return pos == std::string::npos ? std::string() : line.substr(pos);
}

TEST(ServeEngine, MissThenHitServesIdenticalBytes) {
  Engine engine(EngineOptions{.threads = 2});
  const auto scenario = small_scenario();

  const std::string first =
      submit_and_wait(engine, solve_request(scenario, "a", true));
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
  auto stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_size, 1u);

  const std::string second =
      submit_and_wait(engine, solve_request(scenario, "b", true));
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;
  EXPECT_EQ(result_part(first), result_part(second));
  stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(ServeEngine, ColdServedAnswerEqualsOneShotByteForByte) {
  Engine engine(EngineOptions{.threads = 2});
  const auto scenario = small_scenario();
  const std::string served =
      submit_and_wait(engine, solve_request(scenario, "x", true));

  const serve::Answer oneshot = Engine::evaluate_now(scenario);
  const std::string oneshot_line =
      serve::serialize_answer("x", oneshot, serve::Served{}, true);
  EXPECT_EQ(result_part(served), result_part(oneshot_line));
  EXPECT_TRUE(oneshot.converged);
  EXPECT_GT(oneshot.n_states, 0);
}

TEST(ServeEngine, SameStructureDifferentRatesSolvesWarm) {
  Engine engine(EngineOptions{.threads = 1});
  const std::string cold =
      submit_and_wait(engine, solve_request(small_scenario(50.0), "c"));
  EXPECT_NE(cold.find("\"warm\":false"), std::string::npos) << cold;
  const std::string warm =
      submit_and_wait(engine, solve_request(small_scenario(55.0), "w"));
  EXPECT_NE(warm.find("\"warm\":true"), std::string::npos) << warm;
  EXPECT_NE(warm.find("\"cached\":false"), std::string::npos) << warm;
  // Same frozen sparsity: identical structure digest in both payloads.
  const auto structure_of = [](const std::string& line) {
    const auto doc = serve::parse_json(result_part(line));
    return doc.has_value() ? doc->string_or("structure", "") : std::string();
  };
  EXPECT_EQ(structure_of(cold), structure_of(warm));
  EXPECT_EQ(engine.stats().slots, 1u);
}

TEST(ServeEngine, ZeroDeadlineIsShedBeforeSolving) {
  Engine engine(EngineOptions{.threads = 1});
  Request req = solve_request(small_scenario(), "late");
  req.deadline_ms = 0.0;  // already expired at admission: deterministic shed
  const std::string response = submit_and_wait(engine, std::move(req));
  EXPECT_NE(response.find("\"shed\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"reason\":\"deadline\""), std::string::npos);
  EXPECT_NE(response.find("\"id\":\"late\""), std::string::npos);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.jobs_shed, 1u);
  EXPECT_EQ(stats.deadline_missed, 1u);
  // Admission counts every request once, as a hit or a miss, before the
  // queue decides to shed it.
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(ServeEngine, InvalidParametersProduceErrorResponse) {
  Engine engine(EngineOptions{.threads = 1});
  auto scenario = small_scenario();
  scenario.lambda = -1.0;  // models reject this with std::invalid_argument
  const std::string response =
      submit_and_wait(engine, solve_request(scenario, "bad"));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"error\":"), std::string::npos) << response;
  EXPECT_NE(response.find("\"id\":\"bad\""), std::string::npos);
}

TEST(ServeEngine, CapacityOneCacheEvicts) {
  Engine engine(EngineOptions{.threads = 1, .cache_capacity = 1});
  const auto a = small_scenario(50.0);
  const auto b = small_scenario(60.0);
  (void)submit_and_wait(engine, solve_request(a, "1"));
  (void)submit_and_wait(engine, solve_request(b, "2"));  // evicts a
  auto stats = engine.stats();
  EXPECT_EQ(stats.cache_evicted, 1u);
  EXPECT_EQ(stats.cache_size, 1u);
  // `a` was evicted, so asking again misses and re-solves.
  const std::string again = submit_and_wait(engine, solve_request(a, "3"));
  EXPECT_NE(again.find("\"cached\":false"), std::string::npos) << again;
  stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_evicted, 2u);
}

TEST(ServeEngine, SlotMapStaysAtItsBound) {
  // One structure key per k1: cycling through more keys than the bound
  // evicts the least recently used idle slots, and a structure whose slot
  // was evicted comes back as a cold slot, whose first answer is the
  // one-shot path's, byte for byte.
  Engine engine(EngineOptions{.threads = 2});
  const auto scenario_for = [](unsigned k1, double t) {
    auto s = small_scenario(t);
    s.k1 = k1;
    return s;
  };
  const auto slots_reported = [&engine] {
    const auto doc = serve::parse_json(serve::serialize_stats("s", engine.stats()));
    const serve::JsonValue* stats = doc.has_value() ? doc->find("stats") : nullptr;
    return stats != nullptr ? stats->number_or("slots", -1.0) : -1.0;
  };
  const unsigned keys = static_cast<unsigned>(serve::kMaxSlots) + 3;
  for (unsigned round = 0; round < 2; ++round) {
    for (unsigned k = 1; k <= keys; ++k) {
      const auto scenario = scenario_for(k, 40.0 + round);
      const std::string served =
          submit_and_wait(engine, solve_request(scenario, std::to_string(k), true));
      const std::string oneshot = serve::serialize_answer(
          "k", Engine::evaluate_now(scenario), serve::Served{}, true);
      EXPECT_EQ(result_part(served), result_part(oneshot)) << "k1 " << k;
      EXPECT_LE(engine.stats().slots, serve::kMaxSlots);
    }
  }
  EXPECT_EQ(engine.stats().slots, serve::kMaxSlots);
  EXPECT_EQ(slots_reported(), static_cast<double>(serve::kMaxSlots));
}

TEST(ServeEngine, FieldThePolicyDoesNotReadSharesTheCachedAnswer) {
  // round_robin reads k1 but not k2: a request differing only in k2 names
  // the same chain and rates, so it is answered from the cache.
  Engine engine(EngineOptions{.threads = 1});
  auto scenario = small_scenario();
  scenario.policy = core::PolicyKind::kRoundRobin;
  const std::string first = submit_and_wait(engine, solve_request(scenario, "a", true));
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
  scenario.k2 = 5;
  const std::string second = submit_and_wait(engine, solve_request(scenario, "b", true));
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;
  EXPECT_EQ(result_part(first), result_part(second));
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(ServeEngine, ClosedFormPoliciesCacheToo) {
  Engine engine(EngineOptions{.threads = 1});
  auto scenario = small_scenario();
  scenario.policy = core::PolicyKind::kRandom;
  const std::string first =
      submit_and_wait(engine, solve_request(scenario, "r1"));
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
  EXPECT_NE(first.find("\"method\":\"closed-form\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"structure\":\"0000000000000000\""), std::string::npos);
  const std::string second =
      submit_and_wait(engine, solve_request(scenario, "r2"));
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;
  EXPECT_EQ(result_part(first), result_part(second));
}

}  // namespace
