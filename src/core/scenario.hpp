// The paper's experimental scenarios (Section 5), one per figure, with the
// published parameter values as defaults — plus the shared scenario-request
// layer: a ScenarioRequest names one policy at one parameter point, and
// evaluate_scenario / ScenarioSlot are the single evaluation path behind
// both the one-shot figure binaries and the tags_server daemon, so a served
// answer and a driver's answer come from provably the same code.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ctmc/steady_state.hpp"
#include "models/metrics.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"

namespace tags::core {

/// Common constants: n = 6, K1 = K2 = 10, mu = 10 (mean demand 0.1).
struct PaperDefaults {
  static constexpr unsigned kTicks = 6;
  static constexpr unsigned kBuffer = 10;
  static constexpr double kMu = 10.0;
  static constexpr double kMeanDemand = 0.1;
};

/// Figures 6 & 7: lambda = 5, exponential demands, sweep the timer rate t.
struct Fig6Scenario {
  double lambda = 5.0;
  std::vector<double> t_values;  ///< default filled by make()
  [[nodiscard]] static Fig6Scenario make();
  [[nodiscard]] models::TagsParams tags_at(double t) const;
};

/// Figure 8: response time vs arrival rate at the queue-length-optimal
/// integer t. The paper quotes t* = 51, 49, 45, 42 for lambda = 5, 7, 9, 11.
struct Fig8Scenario {
  std::vector<double> lambdas{5.0, 7.0, 9.0, 11.0};
  [[nodiscard]] models::TagsParams tags_at(double lambda, double t) const;
};

/// Figures 9 & 10: H2 demands, alpha = 0.99, mu1 = 100 mu2, mean 0.1,
/// lambda = 11, sweep t.
struct Fig9Scenario {
  double lambda = 11.0;
  double alpha = 0.99;
  double ratio = 100.0;
  std::vector<double> t_values;
  [[nodiscard]] static Fig9Scenario make();
  [[nodiscard]] models::TagsH2Params tags_at(double t) const;
};

/// Figures 11 & 12: H2 with mu1 = 10 mu2, alpha swept over [0.89, 0.99],
/// TAGS at the per-alpha optimal t.
struct Fig11Scenario {
  double lambda = 11.0;
  double ratio = 10.0;
  std::vector<double> alphas;
  [[nodiscard]] static Fig11Scenario make();
  [[nodiscard]] models::TagsH2Params tags_at(double alpha, double t) const;
};

// ---------------------------------------------------------------------------
// Scenario requests: the policy/parameter-point vocabulary shared by the
// figure drivers and the tags_server daemon.
// ---------------------------------------------------------------------------

/// Every allocation policy a scenario can name. The exponential-demand
/// baselines (kRandom, kRoundRobin, kShortestQueue) read lambda/mu/k1; the
/// H2 baselines (kRandomH2, kShortestQueueH2) read lambda/alpha/mu1/mu2/k1.
enum class PolicyKind {
  kTags,
  kTagsH2,
  kRandom,
  kRandomH2,
  kRoundRobin,
  kShortestQueue,
  kShortestQueueH2,
};

/// Wire/CLI name of a policy ("tags", "tags_h2", "random", "random_h2",
/// "round_robin", "shortest_queue", "shortest_queue_h2").
[[nodiscard]] std::string_view to_string(PolicyKind kind) noexcept;
[[nodiscard]] std::optional<PolicyKind> policy_from_string(std::string_view name) noexcept;

/// One solvable scenario: a policy at one parameter point. The field set is
/// the union of every policy's parameters; each policy reads its own slice
/// (see PolicyKind). Defaults are the paper's common constants.
struct ScenarioRequest {
  PolicyKind policy = PolicyKind::kTags;
  double lambda = 5.0;  ///< arrival rate
  double mu = 10.0;     ///< service rate (exponential-demand family)
  double t = 50.0;      ///< TAGS timer phase rate
  double alpha = 0.99;  ///< P(job short) (H2 family)
  double mu1 = 19.9;    ///< short-job rate (H2 family)
  double mu2 = 0.199;   ///< long-job rate (H2 family)
  unsigned n = PaperDefaults::kTicks;    ///< timer ticks (structural)
  unsigned k1 = PaperDefaults::kBuffer;  ///< node-1 buffer (structural)
  unsigned k2 = PaperDefaults::kBuffer;  ///< node-2 buffer (structural)

  [[nodiscard]] models::TagsParams tags_params() const;
  [[nodiscard]] models::TagsH2Params tags_h2_params() const;
  /// True for the policies whose demands are hyper-exponential.
  [[nodiscard]] bool is_h2() const noexcept;
};

/// Reject requests whose rate parameters no model can solve: throws
/// std::invalid_argument for non-finite or non-positive lambda, for a
/// non-positive mu (exponential family) or mu1/mu2 (H2 family), for an
/// alpha outside [0, 1], and for a non-positive timer rate t on the TAGS
/// policies. Called by ScenarioSlot::evaluate before any model is built,
/// so the server's error path and the one-shot path reject identically.
void validate(const ScenarioRequest& req);

/// Lift model parameter structs into requests (the figure drivers' path).
[[nodiscard]] ScenarioRequest request_for(const models::TagsParams& p);
[[nodiscard]] ScenarioRequest request_for(const models::TagsH2Params& p);

/// The same parameter point under a different policy: the baseline
/// comparison every figure makes. Exponential baselines inherit
/// lambda/mu/k1 from `base`; H2 baselines inherit lambda/alpha/mu1/mu2/k1.
[[nodiscard]] ScenarioRequest baseline_for(PolicyKind kind, const ScenarioRequest& base);

/// FNV-1a digest over the policy name and every numeric parameter the
/// policy reads — the "rate point" component of the solve-cache key.
/// Structural parameters are included too, so the digest alone is a usable
/// exact-request key even before a model is assembled.
[[nodiscard]] std::uint64_t rate_digest(const ScenarioRequest& req) noexcept;

/// The structural identity of a request: policy plus the parameters that
/// shape the state space (n/k1/k2). Requests with equal structure keys
/// share a frozen sparsity pattern — and therefore a ScenarioSlot.
[[nodiscard]] std::string structure_key(const ScenarioRequest& req);

/// What one evaluation produced. Closed-form policies (kRandom) have no
/// chain: pi stays empty, structure_digest 0, and solve holds a synthetic
/// converged result.
struct ScenarioOutcome {
  models::Metrics metrics;
  linalg::Vec pi;                        ///< stationary vector (CTMC policies)
  ctmc::SteadyStateResult solve;         ///< convergence + certificate
  std::uint64_t structure_digest = 0;    ///< ctmc::structure_digest of the chain
};

/// A reusable evaluation slot holding at most one assembled model. Re-used
/// with a request of the same structure key, it rebinds rates on the frozen
/// sparsity pattern and warm-starts from the previous solve (the
/// ctmc::WarmStartState machinery); a different structure rebuilds. TAGS
/// requests that differ only in t lie on one line, t its coordinate, so a
/// solve may start from the extrapolation of the line's last points; a
/// change of structure or of any other rate starts a new line. A
/// default-constructed slot evaluated once is exactly the one-shot path.
/// Not thread-safe: the server wraps each slot in its own mutex.
class ScenarioSlot {
 public:
  ScenarioSlot();
  ~ScenarioSlot();
  ScenarioSlot(ScenarioSlot&&) noexcept;
  ScenarioSlot& operator=(ScenarioSlot&&) noexcept;

  /// Evaluate a request, reusing the assembled model when the structure
  /// matches. `opts` seeds the solver configuration; the slot overlays its
  /// warm-start guess on top. Throws std::invalid_argument for parameter
  /// values the model rejects.
  [[nodiscard]] ScenarioOutcome evaluate(const ScenarioRequest& req,
                                         const ctmc::SteadyStateOptions& opts = {});

  /// Warm-start counters accumulated by this slot (hits/misses/cleared/
  /// predicted).
  [[nodiscard]] const ctmc::WarmStartState& warm() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot evaluation: a fresh slot, a cold solve. The figure binaries'
/// baseline metrics and the tags_client --oneshot mode both live here.
[[nodiscard]] ScenarioOutcome evaluate_scenario(const ScenarioRequest& req,
                                                const ctmc::SteadyStateOptions& opts = {});

/// Convenience: evaluate_scenario(req).metrics.
[[nodiscard]] models::Metrics scenario_metrics(const ScenarioRequest& req);

}  // namespace tags::core
