#include "core/scenario.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/sweep.hpp"
#include "ctmc/digest.hpp"
#include "models/random_alloc.hpp"
#include "models/round_robin.hpp"
#include "models/shortest_queue.hpp"

namespace tags::core {

Fig6Scenario Fig6Scenario::make() {
  Fig6Scenario s;
  // The paper plots the total/average queue length against the timeout rate
  // with the interesting region around the optimum near t ~ 50-60.
  for (double t = 10.0; t <= 150.0; t += 5.0) s.t_values.push_back(t);
  return s;
}

models::TagsParams Fig6Scenario::tags_at(double t) const {
  models::TagsParams p;
  p.lambda = lambda;
  p.mu = PaperDefaults::kMu;
  p.t = t;
  p.n = PaperDefaults::kTicks;
  p.k1 = p.k2 = PaperDefaults::kBuffer;
  return p;
}

models::TagsParams Fig8Scenario::tags_at(double lambda, double t) const {
  models::TagsParams p;
  p.lambda = lambda;
  p.mu = PaperDefaults::kMu;
  p.t = t;
  p.n = PaperDefaults::kTicks;
  p.k1 = p.k2 = PaperDefaults::kBuffer;
  return p;
}

Fig9Scenario Fig9Scenario::make() {
  Fig9Scenario s;
  for (double t = 4.0; t <= 60.0; t += 4.0) s.t_values.push_back(t);
  for (double t = 70.0; t <= 150.0; t += 20.0) s.t_values.push_back(t);
  return s;
}

models::TagsH2Params Fig9Scenario::tags_at(double t) const {
  return models::TagsH2Params::from_ratio(lambda, alpha, ratio,
                                          PaperDefaults::kMeanDemand, t,
                                          PaperDefaults::kTicks,
                                          PaperDefaults::kBuffer,
                                          PaperDefaults::kBuffer);
}

Fig11Scenario Fig11Scenario::make() {
  Fig11Scenario s;
  s.alphas = linspace(0.89, 0.99, 11);
  return s;
}

models::TagsH2Params Fig11Scenario::tags_at(double alpha, double t) const {
  return models::TagsH2Params::from_ratio(lambda, alpha, ratio,
                                          PaperDefaults::kMeanDemand, t,
                                          PaperDefaults::kTicks,
                                          PaperDefaults::kBuffer,
                                          PaperDefaults::kBuffer);
}

// ---------------------------------------------------------------------------
// Scenario requests
// ---------------------------------------------------------------------------

std::string_view to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kTags: return "tags";
    case PolicyKind::kTagsH2: return "tags_h2";
    case PolicyKind::kRandom: return "random";
    case PolicyKind::kRandomH2: return "random_h2";
    case PolicyKind::kRoundRobin: return "round_robin";
    case PolicyKind::kShortestQueue: return "shortest_queue";
    case PolicyKind::kShortestQueueH2: return "shortest_queue_h2";
  }
  return "?";
}

std::optional<PolicyKind> policy_from_string(std::string_view name) noexcept {
  for (const PolicyKind kind :
       {PolicyKind::kTags, PolicyKind::kTagsH2, PolicyKind::kRandom,
        PolicyKind::kRandomH2, PolicyKind::kRoundRobin, PolicyKind::kShortestQueue,
        PolicyKind::kShortestQueueH2}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

models::TagsParams ScenarioRequest::tags_params() const {
  models::TagsParams p;
  p.lambda = lambda;
  p.mu = mu;
  p.t = t;
  p.n = n;
  p.k1 = k1;
  p.k2 = k2;
  return p;
}

models::TagsH2Params ScenarioRequest::tags_h2_params() const {
  models::TagsH2Params p;
  p.lambda = lambda;
  p.alpha = alpha;
  p.mu1 = mu1;
  p.mu2 = mu2;
  p.t = t;
  p.n = n;
  p.k1 = k1;
  p.k2 = k2;
  return p;
}

bool ScenarioRequest::is_h2() const noexcept {
  return policy == PolicyKind::kTagsH2 || policy == PolicyKind::kRandomH2 ||
         policy == PolicyKind::kShortestQueueH2;
}

ScenarioRequest request_for(const models::TagsParams& p) {
  ScenarioRequest req;
  req.policy = PolicyKind::kTags;
  req.lambda = p.lambda;
  req.mu = p.mu;
  req.t = p.t;
  req.n = p.n;
  req.k1 = p.k1;
  req.k2 = p.k2;
  return req;
}

ScenarioRequest request_for(const models::TagsH2Params& p) {
  ScenarioRequest req;
  req.policy = PolicyKind::kTagsH2;
  req.lambda = p.lambda;
  req.alpha = p.alpha;
  req.mu1 = p.mu1;
  req.mu2 = p.mu2;
  req.t = p.t;
  req.n = p.n;
  req.k1 = p.k1;
  req.k2 = p.k2;
  return req;
}

namespace {

[[noreturn]] void reject(std::string_view field, double value) {
  throw std::invalid_argument("scenario: " + std::string(field) + " = " +
                              std::to_string(value) + " is outside the model's domain");
}

void require_positive_rate(std::string_view field, double value) {
  if (!std::isfinite(value) || value <= 0.0) reject(field, value);
}

}  // namespace

void validate(const ScenarioRequest& req) {
  require_positive_rate("lambda", req.lambda);
  if (req.is_h2()) {
    require_positive_rate("mu1", req.mu1);
    require_positive_rate("mu2", req.mu2);
    if (!std::isfinite(req.alpha) || req.alpha < 0.0 || req.alpha > 1.0) {
      reject("alpha", req.alpha);
    }
  } else {
    require_positive_rate("mu", req.mu);
  }
  if (req.policy == PolicyKind::kTags || req.policy == PolicyKind::kTagsH2) {
    require_positive_rate("t", req.t);
  }
}

ScenarioRequest baseline_for(PolicyKind kind, const ScenarioRequest& base) {
  ScenarioRequest req = base;
  req.policy = kind;
  return req;
}

std::uint64_t rate_digest(const ScenarioRequest& req) noexcept {
  using ctmc::fnv1a64_double;
  using ctmc::fnv1a64_str;
  using ctmc::fnv1a64_u64;
  std::uint64_t h = fnv1a64_str(to_string(req.policy), ctmc::kFnv1aOffset);
  h = fnv1a64_double(req.lambda, h);
  h = fnv1a64_u64(req.k1, h);
  // Only the fields the policy actually reads enter the digest, so an
  // irrelevant field cannot split the cache between equivalent requests.
  if (req.is_h2()) {
    h = fnv1a64_double(req.alpha, h);
    h = fnv1a64_double(req.mu1, h);
    h = fnv1a64_double(req.mu2, h);
  } else {
    h = fnv1a64_double(req.mu, h);
  }
  if (req.policy == PolicyKind::kTags || req.policy == PolicyKind::kTagsH2) {
    h = fnv1a64_double(req.t, h);
    h = fnv1a64_u64(req.n, h);
    h = fnv1a64_u64(req.k2, h);
  }
  return h;
}

std::string structure_key(const ScenarioRequest& req) {
  std::string key(to_string(req.policy));
  key += "/n";
  key += std::to_string(req.n);
  key += "/k";
  key += std::to_string(req.k1);
  key += '.';
  key += std::to_string(req.k2);
  return key;
}

// ---------------------------------------------------------------------------
// ScenarioSlot
// ---------------------------------------------------------------------------

struct ScenarioSlot::Impl {
  // At most one of these is live; `active` aliases it. A slot rebuilds when
  // the structure key of the next request differs from `structure`.
  std::unique_ptr<models::TagsModel> tags;
  std::unique_ptr<models::TagsH2Model> tags_h2;
  std::unique_ptr<models::RoundRobinModel> round_robin;
  std::unique_ptr<models::ShortestQueueModel> shortest_queue;
  std::unique_ptr<models::ShortestQueueH2Model> shortest_queue_h2;
  models::SolvableModel* active = nullptr;
  std::string structure;
  std::uint64_t digest = 0;
  ctmc::WarmStartState warm;
  /// The t-line the warm starts extrapolate along: the rate digest of the
  /// last TAGS request with t left out. Any other change restarts it.
  std::uint64_t line = 0;

  void reset() {
    tags.reset();
    tags_h2.reset();
    round_robin.reset();
    shortest_queue.reset();
    shortest_queue_h2.reset();
    active = nullptr;
    structure.clear();
    digest = 0;
  }

  void build(const ScenarioRequest& req) {
    reset();
    switch (req.policy) {
      case PolicyKind::kTags:
        tags = std::make_unique<models::TagsModel>(req.tags_params());
        active = tags.get();
        break;
      case PolicyKind::kTagsH2:
        tags_h2 = std::make_unique<models::TagsH2Model>(req.tags_h2_params());
        active = tags_h2.get();
        break;
      case PolicyKind::kRoundRobin:
        round_robin = std::make_unique<models::RoundRobinModel>(
            models::RoundRobinParams{.lambda = req.lambda, .mu = req.mu, .k = req.k1});
        active = round_robin.get();
        break;
      case PolicyKind::kShortestQueue:
        shortest_queue = std::make_unique<models::ShortestQueueModel>(
            models::ShortestQueueParams{.lambda = req.lambda, .mu = req.mu, .k = req.k1});
        active = shortest_queue.get();
        break;
      case PolicyKind::kShortestQueueH2:
        shortest_queue_h2 = std::make_unique<models::ShortestQueueH2Model>(
            models::ShortestQueueH2Params{.lambda = req.lambda,
                                          .alpha = req.alpha,
                                          .mu1 = req.mu1,
                                          .mu2 = req.mu2,
                                          .k = req.k1});
        active = shortest_queue_h2.get();
        break;
      case PolicyKind::kRandom:
      case PolicyKind::kRandomH2:
        throw std::logic_error("closed-form policy has no model slot");
    }
    structure = structure_key(req);
    digest = ctmc::structure_digest(active->chain());
  }

  void rebind(const ScenarioRequest& req) {
    switch (req.policy) {
      case PolicyKind::kTags:
        tags->rebind(req.tags_params());
        break;
      case PolicyKind::kTagsH2:
        tags_h2->rebind(req.tags_h2_params());
        break;
      case PolicyKind::kRoundRobin:
        round_robin->rebind({.lambda = req.lambda, .mu = req.mu, .k = req.k1});
        break;
      case PolicyKind::kShortestQueue:
        shortest_queue->rebind({.lambda = req.lambda, .mu = req.mu, .k = req.k1});
        break;
      case PolicyKind::kShortestQueueH2:
        shortest_queue_h2->rebind({.lambda = req.lambda,
                                   .alpha = req.alpha,
                                   .mu1 = req.mu1,
                                   .mu2 = req.mu2,
                                   .k = req.k1});
        break;
      case PolicyKind::kRandom:
      case PolicyKind::kRandomH2:
        throw std::logic_error("closed-form policy has no model slot");
    }
  }
};

ScenarioSlot::ScenarioSlot() : impl_(std::make_unique<Impl>()) {}
ScenarioSlot::~ScenarioSlot() = default;
ScenarioSlot::ScenarioSlot(ScenarioSlot&&) noexcept = default;
ScenarioSlot& ScenarioSlot::operator=(ScenarioSlot&&) noexcept = default;

ScenarioOutcome ScenarioSlot::evaluate(const ScenarioRequest& req,
                                       const ctmc::SteadyStateOptions& opts) {
  validate(req);
  ScenarioOutcome out;
  // Closed-form / composite policies evaluate directly — no chain to keep.
  if (req.policy == PolicyKind::kRandom) {
    out.metrics =
        models::random_alloc_exp({.lambda = req.lambda, .mu = req.mu, .k = req.k1});
    out.solve.converged = true;
    return out;
  }
  if (req.policy == PolicyKind::kRandomH2) {
    out.metrics = models::random_alloc_h2({.lambda = req.lambda,
                                           .alpha = req.alpha,
                                           .mu1 = req.mu1,
                                           .mu2 = req.mu2,
                                           .k = req.k1});
    out.solve.converged = true;
    return out;
  }

  Impl& s = *impl_;
  if (s.active == nullptr || s.structure != structure_key(req)) {
    s.build(req);
  } else {
    try {
      s.rebind(req);
    } catch (const std::logic_error&) {
      // The new rate point degenerates the emission pattern (e.g. an H2
      // alpha of exactly 0 or 1): rebuild instead of failing the request.
      s.build(req);
    }
  }

  // Overlay the slot's warm-start guess on the caller's solver options.
  ctmc::SteadyStateOptions next = opts;
  next.initial_guess = std::move(s.warm.opts.initial_guess);
  s.warm.opts = std::move(next);
  if (req.policy == PolicyKind::kTags || req.policy == PolicyKind::kTagsH2) {
    ScenarioRequest off_t = req;
    off_t.t = 0.0;
    const std::uint64_t line = rate_digest(off_t);
    if (line != s.line) s.warm.restart_line();
    s.line = line;
    s.warm.reconcile(s.active->chain().generator(), req.t);
  } else {
    s.warm.reconcile(s.active->n_states());
  }
  ctmc::SteadyStateResult solved = s.active->solve(s.warm.opts);
  s.warm.accept(solved);

  out.metrics = s.active->metrics_from(solved.pi);
  out.structure_digest = s.digest;
  out.solve = std::move(solved);
  out.pi = std::move(out.solve.pi);  // solve's own copy is moved out
  return out;
}

const ctmc::WarmStartState& ScenarioSlot::warm() const noexcept {
  return impl_->warm;
}

ScenarioOutcome evaluate_scenario(const ScenarioRequest& req,
                                  const ctmc::SteadyStateOptions& opts) {
  ScenarioSlot slot;
  return slot.evaluate(req, opts);
}

models::Metrics scenario_metrics(const ScenarioRequest& req) {
  return evaluate_scenario(req).metrics;
}

}  // namespace tags::core
