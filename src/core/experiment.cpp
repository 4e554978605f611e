#include "core/experiment.hpp"

#include <optional>
#include <span>
#include <string_view>

#include "core/sweep.hpp"
#include "ctmc/digest.hpp"
#include "models/batch_sweep.hpp"
#include "obs/obs.hpp"

namespace tags::core {

PolicyComparison compare_policies_exp(const models::TagsParams& p) {
  PolicyComparison c;
  c.tags = models::TagsModel(p).metrics();
  c.random = models::random_alloc_exp({.lambda = p.lambda, .mu = p.mu, .k = p.k1});
  c.round_robin =
      models::RoundRobinModel({.lambda = p.lambda, .mu = p.mu, .k = p.k1}).metrics();
  c.shortest_queue =
      models::ShortestQueueModel({.lambda = p.lambda, .mu = p.mu, .k = p.k1}).metrics();
  return c;
}

PolicyComparison compare_policies_h2(const models::TagsH2Params& p) {
  PolicyComparison c;
  c.tags = models::TagsH2Model(p).metrics();
  c.random = models::random_alloc_h2(
      {.lambda = p.lambda, .alpha = p.alpha, .mu1 = p.mu1, .mu2 = p.mu2, .k = p.k1});
  c.shortest_queue = models::ShortestQueueH2Model({.lambda = p.lambda,
                                                   .alpha = p.alpha,
                                                   .mu1 = p.mu1,
                                                   .mu2 = p.mu2,
                                                   .k = p.k1})
                         .metrics();
  return c;
}

namespace {

/// One warm-started t-chain over [range): the body shared by the legacy
/// sequential sweeps (one chain across the whole grid) and the sharded
/// engine (one chain per shard, thread-local model instance). `batch > 1`
/// packs that many adjacent points per solve (models::batched_t_chain);
/// batch width never enters the shard plan or journal digest, so it is an
/// execution knob like the thread count, not part of a sweep's identity.
template <class Model, class Params>
void eval_t_chain(const Params& base, const std::vector<double>& t_values,
                  ShardRange range, std::span<models::Metrics> out,
                  ctmc::WarmStartState& warm, std::size_t batch = 1) {
  models::batched_t_chain<Model>(
      base, t_values, range.begin, range.end, batch, warm,
      [&](std::size_t i, const ctmc::SteadyStateResult& solved, Model& model) {
        out[i - range.begin] = model.metrics_from(solved.pi);
      });
}

template <class Model, class Params>
std::vector<models::Metrics> model_t_sweep(const Params& base,
                                           const std::vector<double>& t_values,
                                           const SweepPlan& plan, SweepStats* stats,
                                           const SweepJournalBinding<models::Metrics>*
                                               binding = nullptr) {
  const std::size_t batch = plan.batch > 0 ? plan.batch : default_batch_width();
  return sharded_sweep<models::Metrics>(
      t_values.size(), plan,
      [&](ShardRange range, std::span<models::Metrics> out,
          ctmc::WarmStartState& warm) {
        eval_t_chain<Model>(base, t_values, range, out, warm, batch);
      },
      stats, binding);
}

/// Shared tail of both sweep digests: grid values by bit pattern plus the
/// resolved shard size (a journal keyed on a 4-point shard plan must never
/// replay into an 8-point one — shard indices would mean different ranges).
std::uint64_t digest_grid_and_plan(std::uint64_t h, const std::vector<double>& t_values,
                                   const SweepPlan& plan) {
  h = ctmc::fnv1a64_u64(t_values.size(), h);
  for (const double t : t_values) h = ctmc::fnv1a64_double(t, h);
  const std::size_t shard_size =
      plan.shard_size > 0 ? plan.shard_size : default_shard_size(t_values.size());
  return ctmc::fnv1a64_u64(shard_size, h);
}

std::uint64_t digest_name(std::string_view name) {
  return ctmc::fnv1a64(name.data(), name.size());
}

SweepJournalBinding<models::Metrics> make_metrics_binding(store::SweepJournal& journal) {
  SweepJournalBinding<models::Metrics> b;
  b.journal = &journal;
  b.encode = [](std::span<const models::Metrics> ms, store::BufWriter& w) {
    encode_metrics(ms, w);
  };
  b.decode = [](store::BufReader& rd, std::span<models::Metrics> out) {
    return decode_metrics(rd, out);
  };
  return b;
}

}  // namespace

std::vector<models::Metrics> tags_t_sweep(const models::TagsParams& base,
                                          const std::vector<double>& t_values) {
  const obs::Span span("core/tags_t_sweep");
  std::vector<models::Metrics> out(t_values.size());
  ctmc::WarmStartState warm;
  eval_t_chain<models::TagsModel>(base, t_values, {0, t_values.size()}, out, warm);
  return out;
}

std::vector<models::Metrics> tags_h2_t_sweep(const models::TagsH2Params& base,
                                             const std::vector<double>& t_values) {
  const obs::Span span("core/tags_h2_t_sweep");
  std::vector<models::Metrics> out(t_values.size());
  ctmc::WarmStartState warm;
  eval_t_chain<models::TagsH2Model>(base, t_values, {0, t_values.size()}, out, warm);
  return out;
}

std::vector<models::Metrics> tags_t_sweep(const models::TagsParams& base,
                                          const std::vector<double>& t_values,
                                          const SweepPlan& plan, SweepStats* stats) {
  const obs::Span span("core/tags_t_sweep");
  return model_t_sweep<models::TagsModel>(base, t_values, plan, stats);
}

std::vector<models::Metrics> tags_h2_t_sweep(const models::TagsH2Params& base,
                                             const std::vector<double>& t_values,
                                             const SweepPlan& plan,
                                             SweepStats* stats) {
  const obs::Span span("core/tags_h2_t_sweep");
  return model_t_sweep<models::TagsH2Model>(base, t_values, plan, stats);
}

std::uint64_t sweep_digest(const models::TagsParams& base,
                           const std::vector<double>& t_values,
                           const SweepPlan& plan) {
  std::uint64_t h = digest_name("tags_t_sweep");
  h = ctmc::fnv1a64_double(base.lambda, h);
  h = ctmc::fnv1a64_double(base.mu, h);
  h = ctmc::fnv1a64_u64(base.n, h);
  h = ctmc::fnv1a64_u64(base.k1, h);
  h = ctmc::fnv1a64_u64(base.k2, h);
  return digest_grid_and_plan(h, t_values, plan);
}

std::uint64_t sweep_digest(const models::TagsH2Params& base,
                           const std::vector<double>& t_values,
                           const SweepPlan& plan) {
  std::uint64_t h = digest_name("tags_h2_t_sweep");
  h = ctmc::fnv1a64_double(base.lambda, h);
  h = ctmc::fnv1a64_double(base.alpha, h);
  h = ctmc::fnv1a64_double(base.mu1, h);
  h = ctmc::fnv1a64_double(base.mu2, h);
  h = ctmc::fnv1a64_u64(base.n, h);
  h = ctmc::fnv1a64_u64(base.k1, h);
  h = ctmc::fnv1a64_u64(base.k2, h);
  return digest_grid_and_plan(h, t_values, plan);
}

void encode_metrics(std::span<const models::Metrics> ms, store::BufWriter& w) {
  for (const models::Metrics& m : ms) {
    w.put_f64(m.mean_q1);
    w.put_f64(m.mean_q2);
    w.put_f64(m.mean_total);
    w.put_f64(m.throughput);
    w.put_f64(m.loss1_rate);
    w.put_f64(m.loss2_rate);
    w.put_f64(m.loss_rate);
    w.put_f64(m.response_time);
    w.put_f64(m.utilisation1);
    w.put_f64(m.utilisation2);
  }
}

bool decode_metrics(store::BufReader& rd, std::span<models::Metrics> out) {
  for (models::Metrics& m : out) {
    m.mean_q1 = rd.get_f64();
    m.mean_q2 = rd.get_f64();
    m.mean_total = rd.get_f64();
    m.throughput = rd.get_f64();
    m.loss1_rate = rd.get_f64();
    m.loss2_rate = rd.get_f64();
    m.loss_rate = rd.get_f64();
    m.response_time = rd.get_f64();
    m.utilisation1 = rd.get_f64();
    m.utilisation2 = rd.get_f64();
  }
  return rd.ok();
}

std::vector<models::Metrics> tags_t_sweep(const models::TagsParams& base,
                                          const std::vector<double>& t_values,
                                          const SweepPlan& plan, SweepStats* stats,
                                          store::SolveStore* store) {
  if (store == nullptr) return tags_t_sweep(base, t_values, plan, stats);
  const obs::Span span("core/tags_t_sweep");
  store::SweepJournal journal(*store, "tags_t_sweep",
                              sweep_digest(base, t_values, plan));
  const auto binding = make_metrics_binding(journal);
  return model_t_sweep<models::TagsModel>(base, t_values, plan, stats, &binding);
}

std::vector<models::Metrics> tags_h2_t_sweep(const models::TagsH2Params& base,
                                             const std::vector<double>& t_values,
                                             const SweepPlan& plan, SweepStats* stats,
                                             store::SolveStore* store) {
  if (store == nullptr) return tags_h2_t_sweep(base, t_values, plan, stats);
  const obs::Span span("core/tags_h2_t_sweep");
  store::SweepJournal journal(*store, "tags_h2_t_sweep",
                              sweep_digest(base, t_values, plan));
  const auto binding = make_metrics_binding(journal);
  return model_t_sweep<models::TagsH2Model>(base, t_values, plan, stats, &binding);
}

}  // namespace tags::core
