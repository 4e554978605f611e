#include "approx/optimizer.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "approx/roots.hpp"
#include "models/warm_t_chain.hpp"

namespace tags::approx {

namespace {

bool score_is_better(const models::Metrics& a, const models::Metrics& b,
                     Objective obj);

double score(const models::Metrics& m, Objective obj) {
  switch (obj) {
    case Objective::kMinQueueLength: return m.mean_total;
    case Objective::kMinResponseTime: return m.response_time;
    case Objective::kMaxThroughput: return -m.throughput;
  }
  return 0.0;
}

bool score_is_better(const models::Metrics& a, const models::Metrics& b,
                     Objective obj) {
  return score(a, obj) < score(b, obj);
}

/// Warm-started integer scan shared by both model families.
template <class Model, class Params>
ExactOptimum integer_scan(const Params& p, Objective obj, unsigned t_lo, unsigned t_hi,
                          unsigned stride = 1) {
  ExactOptimum best;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double> ts;
  for (unsigned t = t_lo; t <= t_hi; t += stride) ts.push_back(static_cast<double>(t));
  ctmc::WarmStartState warm;
  models::warm_t_chain<Model>(
      p, ts, 0, ts.size(), warm,
      [&](std::size_t i, const ctmc::SteadyStateResult& solved, Model& model) {
        ++best.solves;
        if (!solved.converged) return;
        const models::Metrics m = model.metrics_from(solved.pi);
        const double s = score(m, obj);
        if (s < best_score) {
          best_score = s;
          best.t = ts[i];
          best.metrics = m;
        }
      });
  return best;
}

}  // namespace

ExactOptimum optimise_tags_t_integer(models::TagsParams p, Objective obj, unsigned t_lo,
                                     unsigned t_hi, std::size_t) {
  return integer_scan<models::TagsModel>(p, obj, t_lo, t_hi);
}

ExactOptimum optimise_tags_h2_t_integer(models::TagsH2Params p, Objective obj,
                                        unsigned t_lo, unsigned t_hi) {
  return integer_scan<models::TagsH2Model>(p, obj, t_lo, t_hi);
}

ExactOptimum optimise_tags_h2_t_coarse(const models::TagsH2Params& p, Objective obj,
                                       unsigned t_lo, unsigned t_hi, unsigned stride) {
  const ExactOptimum coarse =
      integer_scan<models::TagsH2Model>(p, obj, t_lo, t_hi, std::max(1u, stride));
  const auto center = static_cast<unsigned>(coarse.t);
  const unsigned lo = center > t_lo + stride ? center - stride + 1 : t_lo;
  const unsigned hi = std::min(t_hi, center + stride - 1);
  ExactOptimum fine = integer_scan<models::TagsH2Model>(p, obj, lo, hi);
  fine.solves += coarse.solves;
  if (score_is_better(coarse.metrics, fine.metrics, obj)) return coarse;
  return fine;
}

ExactOptimum optimise_tags_t(models::TagsParams p, Objective obj, double t_lo,
                             double t_hi) {
  ExactOptimum out;
  std::optional<models::TagsModel> model;
  ctmc::WarmStartState warm;
  const auto evaluate = [&](double t) {
    p.t = t;
    if (model) {
      model->rebind(p);
    } else {
      model.emplace(p);
    }
    warm.reconcile(model->n_states());
    const auto solved = model->solve(warm.opts);
    ++out.solves;
    warm.accept(solved);
    return model->metrics_from(solved.pi);
  };
  const auto objective = [&](double t) { return score(evaluate(t), obj); };
  const MinimizeResult r = grid_then_golden(objective, t_lo, t_hi, 24, 1e-3);
  out.t = r.x;
  out.metrics = evaluate(r.x);
  return out;
}

}  // namespace tags::approx
