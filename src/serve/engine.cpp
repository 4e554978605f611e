#include "serve/engine.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/pool.hpp"
#include "ctmc/digest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/job_queue.hpp"
#include "serve/solve_cache.hpp"
#include "serve/store_codec.hpp"
#include "store/store.hpp"

namespace tags::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Answer answer_from(const core::ScenarioRequest& scenario,
                   const core::ScenarioOutcome& outcome) {
  Answer a;
  a.scenario = scenario;
  a.metrics = outcome.metrics;
  a.pi = outcome.pi;
  a.structure_digest = outcome.structure_digest;
  a.rate_digest = core::rate_digest(scenario);
  a.pi_digest =
      ctmc::fnv1a64(a.pi.data(), a.pi.size() * sizeof(double));
  a.n_states = static_cast<std::int64_t>(a.pi.size());
  a.certified = outcome.solve.certificate.ok();
  a.converged = outcome.solve.converged;
  a.method = a.pi.empty() ? std::string("closed-form")
                          : std::string(ctmc::to_string(outcome.solve.method_used));
  return a;
}

CacheKey cache_key(const core::ScenarioRequest& scenario) {
  return CacheKey{std::string(core::to_string(scenario.policy)), core::rate_digest(scenario)};
}

}  // namespace

struct Engine::State {
  explicit State(EngineOptions opts)
      : opts(std::move(opts)),
        pool(this->opts.threads),
        queue(this->opts.queue_depth),
        cache(this->opts.cache_capacity),
        requests_counter("serve.requests"),
        cache_loaded_counter("store.cache_loaded") {
    if (!this->opts.store_path.empty()) {
      store = std::make_unique<store::SolveStore>(this->opts.store_path);
      warm_load();
    }
  }

  const EngineOptions opts;
  core::ThreadPool pool;
  JobQueue queue;
  SolveCache cache;
  /// Durable answer store (null when persistence is off). SolveStore is
  /// internally synchronised; workers append concurrently.
  std::unique_ptr<store::SolveStore> store;

  /// One warm-start slot per model structure, each behind its own mutex so
  /// concurrent requests for different structures solve in parallel while
  /// requests sharing a structure serialise (and dedupe via the cache
  /// re-check below). A slot's holders and last use are guarded by
  /// slots_m, which evicts the least recently used idle slots beyond
  /// kMaxSlots.
  struct Slot {
    std::mutex m;
    core::ScenarioSlot slot;
    std::size_t holders = 0;
    std::uint64_t last_used = 0;
  };
  std::mutex slots_m;
  std::unordered_map<std::string, std::unique_ptr<Slot>> slots;
  std::uint64_t slot_uses = 0;

  std::atomic<std::uint64_t> requests{0};
  obs::Counter requests_counter;
  obs::Counter cache_loaded_counter;

  /// Replay every valid kAnswer record into the solve cache, so a
  /// restarted engine serves known scenarios from cache (cached:
  /// true, byte-identical result). Rotten records are skipped by the store
  /// itself; a payload that fails the answer codec is skipped here.
  void warm_load() {
    store->scan([this](const store::Record& rec) {
      if (rec.key.kind != store::RecordKind::kAnswer) return true;
      store::BufReader rd(rec.payload);
      const auto answer = decode_answer(rd);
      if (!answer) return true;
      cache.insert(cache_key(answer->scenario), *answer);
      cache_loaded_counter.add(1);
      return true;
    });
  }

  /// Commit one freshly solved answer (no-op when persistence is off).
  void persist(const Answer& answer, const core::ScenarioOutcome& outcome,
               double solve_ms) {
    if (!store) return;
    const linalg::Certificate& c = outcome.solve.certificate;
    const store::CertSummary cert{answer.certified, answer.converged, c.residual,
                                  c.mass_error, c.condition};
    store->append_commit(answer_record(answer, cert, solve_ms));
  }

  /// The slot for `key`, held (never evicted) until release_slot.
  Slot& acquire_slot(const std::string& key) {
    std::lock_guard<std::mutex> lock(slots_m);
    auto& entry = slots[key];
    if (!entry) entry = std::make_unique<Slot>();
    Slot& slot = *entry;
    ++slot.holders;
    slot.last_used = ++slot_uses;
    evict_idle_slots();
    return slot;
  }

  void release_slot(Slot& slot) {
    std::lock_guard<std::mutex> lock(slots_m);
    --slot.holders;
    evict_idle_slots();
  }

  /// A request's hold on its slot, for the scope of its solve.
  struct SlotHold {
    SlotHold(State& owner, const std::string& key)
        : state(owner), slot(owner.acquire_slot(key)) {}
    ~SlotHold() { state.release_slot(slot); }
    SlotHold(const SlotHold&) = delete;
    SlotHold& operator=(const SlotHold&) = delete;
    State& state;
    Slot& slot;
  };

  /// Under slots_m: drop least recently used idle slots while more than
  /// kMaxSlots are kept. Held slots stay, so the map may briefly exceed
  /// the bound by the number of busy workers.
  void evict_idle_slots() {
    while (slots.size() > kMaxSlots) {
      auto victim = slots.end();
      for (auto it = slots.begin(); it != slots.end(); ++it) {
        if (it->second->holders == 0 &&
            (victim == slots.end() || it->second->last_used < victim->second->last_used)) {
          victim = it;
        }
      }
      if (victim == slots.end()) return;
      slots.erase(victim);
    }
  }

  void execute(const Request& req, const Responder& respond, Clock::time_point admitted);
};

Engine::Engine(EngineOptions opts) : state_(std::make_unique<State>(std::move(opts))) {}

Engine::~Engine() { drain(); }

void Engine::submit(Request req, Responder respond) {
  State& s = *state_;
  s.requests.fetch_add(1, std::memory_order_relaxed);
  s.requests_counter.add(1);
  obs::Span span("serve/request");

  // Fast path: a cached answer is served from the submitting thread
  // without queueing at all. This lookup counts the request's hit or miss.
  if (auto hit = s.cache.lookup(cache_key(req.scenario))) {
    respond(serialize_answer(req.id, *hit, Served{.cached = true}, req.want_pi));
    return;
  }

  const auto admitted = Clock::now();
  Job job;
  job.priority = req.priority;
  if (req.deadline_ms >= 0) {
    job.deadline = admitted + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      req.deadline_ms));
  }
  const std::string id = req.id;
  job.shed = [respond, id](ShedReason reason) { respond(serialize_shed(id, reason)); };
  job.run = [this, req = std::move(req), respond, admitted] {
    state_->execute(req, respond, admitted);
  };
  if (state_->queue.submit(std::move(job))) {
    s.pool.post([st = state_.get()] { st->queue.run_next(); });
  }
}

void Engine::State::execute(const Request& req, const Responder& respond,
                            Clock::time_point admitted) {
  const double queue_ms = ms_since(admitted);
  obs::Span span("serve/solve");
  try {
    const SlotHold hold(*this, core::structure_key(req.scenario));
    Slot& slot = hold.slot;
    std::lock_guard<std::mutex> slot_lock(slot.m);

    // Dedupe re-check: a concurrent identical request may have finished
    // while this one was queued (or waiting on the slot). Serving its
    // answer keeps identical requests bit-identical. Admission counted
    // this request already.
    const CacheKey key = cache_key(req.scenario);
    if (auto hit = cache.lookup(key, false)) {
      respond(serialize_answer(req.id, *hit,
                               Served{.cached = true, .queue_ms = queue_ms},
                               req.want_pi));
      return;
    }

    const auto t0 = Clock::now();
    const std::uint64_t warm_before = slot.slot.warm().hits;
    const core::ScenarioOutcome outcome = slot.slot.evaluate(req.scenario, opts.solve);
    const double solve_ms = ms_since(t0);
    const bool warm = slot.slot.warm().hits > warm_before;

    const Answer answer = answer_from(req.scenario, outcome);
    cache.insert(key, answer);
    // Durability before visibility: the record is fsync'd before the
    // response leaves, so any answer a client ever saw survives a crash.
    persist(answer, outcome, solve_ms);
    respond(serialize_answer(
        req.id, answer,
        Served{.cached = false, .warm = warm, .queue_ms = queue_ms, .solve_ms = solve_ms},
        req.want_pi));
  } catch (const std::exception& e) {
    respond(serialize_error(req.id, e.what()));
  } catch (...) {
    respond(serialize_error(req.id, "unknown evaluation failure"));
  }
}

Answer Engine::evaluate_now(const core::ScenarioRequest& scenario,
                            const ctmc::SteadyStateOptions& opts) {
  return answer_from(scenario, core::evaluate_scenario(scenario, opts));
}

StatsSnapshot Engine::stats() const {
  State& s = *state_;
  StatsSnapshot snap;
  snap.requests = s.requests.load(std::memory_order_relaxed);
  snap.cache_hits = s.cache.hits();
  snap.cache_misses = s.cache.misses();
  snap.cache_evicted = s.cache.evicted();
  snap.jobs_shed = s.queue.shed_total();
  snap.deadline_missed = s.queue.deadline_missed();
  snap.cache_size = s.cache.size();
  snap.queue_depth = s.queue.depth();
  {
    std::lock_guard<std::mutex> lock(s.slots_m);
    snap.slots = s.slots.size();
  }
  snap.threads = s.pool.size();
  return snap;
}

void Engine::drain() {
  state_->queue.drain();
  state_->pool.wait_idle();
}

}  // namespace tags::serve
