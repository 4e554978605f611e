// Benchmark harness: runs one in-process campaign against the libraries'
// public entry points and prints one JSON object of raw measurements as
// its last stdout line. run.py turns those into the reported metrics.
//
//   perfbench_harness --workload paper_figures|fast_paths --seed N
//                     --seconds S --trace 0|1 --reference DIR
//                     [--setup-probe] [--passes N]
//   perfbench_harness --chain-sizes       (protocol lines on stdin)
//   perfbench_harness --fingerprint
//   perfbench_harness --write-fast-reference FILE
//
// A campaign is repeated in passes until the time budget is spent; every
// pass does identical work (obs::reset_metrics() runs between passes, so
// each pass starts from the same registry, span and solve-log state, like a
// fresh run of the figure drivers). Each public call the campaign makes is
// timed; with --trace 1 the calls are kept as spans (name, start, end) and
// every other pass runs untraced, so the tracing overhead is measured too.
// Outputs are checked after each pass, outside the timed window.
//
// --write-fast-reference regenerates reference/fast_paths.csv from the
// generic solvers (no fast paths) run far past their default accuracy, so
// the fast paths are checked against an independent, more accurate answer.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "approx/optimizer.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "ctmc/steady_state.hpp"
#include "models/pepa_sources.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "obs/json.hpp"
#include "obs/level.hpp"
#include "obs/metrics.hpp"
#include "obs/numio.hpp"
#include "pepa/derivation.hpp"
#include "pepa/parser.hpp"
#include "pepa/to_ctmc.hpp"
#include "serve/request.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tags;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// splitmix64: a fully specified generator, so a seed selects the same
// inputs on every platform and standard library.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

// ---------------------------------------------------------------------------
// Timing: every public call of a pass goes through Recorder::call.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// One delivered operation: the public calls that produce `points`
/// results (figure points, solved chains). Every point's latency is the
/// operation's wall time: the results arrive when its last call returns.
struct Op {
  double wall_s;
  std::size_t points;
};

struct PassRecord {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<Op> ops;
  std::vector<Span> spans;  ///< traced passes only
};

class Recorder {
 public:
  explicit Recorder(PassRecord& pass) : pass_(pass) {}

  template <class F>
  void op(std::size_t points, F&& f) {
    const std::int64_t t0 = now_ns();
    f();
    pass_.ops.push_back(Op{static_cast<double>(now_ns() - t0) * 1e-9, points});
  }

  /// One public call; a span when the pass is traced.
  template <class F>
  auto call(const char* span_name, F&& f) {
    if (!pass_.traced) return f();
    const std::int64_t t0 = now_ns();
    auto result = f();
    pass_.spans.push_back(Span{span_name, t0, now_ns()});
    return result;
  }

 private:
  PassRecord& pass_;
};

// ---------------------------------------------------------------------------
// Correctness bookkeeping: an operation is one checked result or one solve.
// ---------------------------------------------------------------------------

struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// Reference CSV as printed: cells[row][column name] = text.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t col(const std::string& name) const {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    throw std::runtime_error("reference has no column " + name);
  }
};

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) out.push_back(cell);
  return out;
}

CsvTable read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  CsvTable t;
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty reference " + path);
  t.header = split_csv_line(line);
  while (std::getline(in, line)) {
    if (!line.empty()) t.rows.push_back(split_csv_line(line));
  }
  return t;
}

/// The published tables the paper campaign is checked against, printed
/// with the precision their drivers use (fig06-09: 5 digits, fig10: 6).
/// fig07 is left out: results/fig07.csv predates the current solver chain
/// and its tiny loss rates (1e-6..1e-4) differ from today's output in the
/// fourth and fifth digit, beyond the solvers' accuracy on those values.
struct PaperRefs {
  CsvTable fig06, fig08, fig09, fig10;
};

/// Relative accuracy of a published measure: Gauss-Seidel stops at
/// ||pi Q||_inf <= 1e-11, which on the stiff H2 chains (mu1 = 100 mu2)
/// still leaves a few 1e-7 between two solves of one chain.
constexpr double kMeasureRelTol = 1e-6;

/// Compare a computed value with a reference cell at the reference's
/// printed precision (same formatter as core::Table). The printed text
/// stands for every value that rounds to it; a value just across a
/// rounding boundary — within kMeasureRelTol of that interval — is the same
/// number computed along another warm-start chain, not a wrong one.
void expect_cell(Checks& chk, const CsvTable& ref, const char* table, std::size_t row,
                 const std::string& column, double value, int precision) {
  const std::string got = numio::format_g(value, precision);
  const std::string& want = ref.rows.at(row).at(ref.col(column));
  bool ok = got == want;
  if (!ok) {
    const double published = numio::parse_double(want).value_or(NAN);
    const double half_unit =
        0.5 * std::pow(10.0, std::floor(std::log10(std::fabs(published))) - precision + 1);
    ok = std::fabs(value - published) <= half_unit + kMeasureRelTol * std::fabs(value);
  }
  chk.expect(ok, std::string(table) + " row " + std::to_string(row) + " " + column +
                     ": got " + numio::format_roundtrip(value) + ", reference " + want);
}

/// Find the reference row whose first column prints as `key`.
std::size_t row_of(const CsvTable& ref, double key) {
  const std::string k = numio::format_g(key, 5);
  for (std::size_t i = 0; i < ref.rows.size(); ++i) {
    if (ref.rows[i].at(0) == k) return i;
  }
  throw std::runtime_error("reference has no row for " + k);
}

/// Each solve the pass made is an operation: it fails when its result was
/// not certified or did not converge.
void check_solve_log(Checks& chk) {
  for (const obs::SolveRecord& r : obs::solve_records()) {
    if (r.context != "steady_state") continue;
    chk.expect(r.certified && r.converged,
               "uncertified solve: method " + r.method + ", n " + std::to_string(r.n));
  }
}

// ---------------------------------------------------------------------------
// paper_figures: the published figure points on one thread.
// ---------------------------------------------------------------------------

constexpr core::SweepPlan kOneThread{.threads = 1, .shard_size = 0, .batch = 1};

struct PaperPlan {
  std::vector<double> fig09_t;  ///< whole shards of the published fig09 sweep
};

/// Figure 8's lambda row is fixed at the paper's calibration point,
/// lambda = 5: on one thread of a 4-vCPU Xeon VM that row takes 2.4 s and
/// the lambda = 11 row 13.5 s, so a seed-picked row would make campaign_s a
/// function of the seed.
constexpr double kFig08Lambda = 5.0;

/// The published fig09/fig10 sweep runs in shards of two consecutive grid
/// points (core::default_shard_size of its 20-point grid). The seed picks
/// one shard from each group below and the campaign re-runs exactly those
/// shards, so every point reproduces its published warm-start chain. The
/// groups hold the shards that cost about the same on one thread (1.0-1.2 s
/// each on the same VM, against 2.3-3.9 s for t <= 32), again so the seed
/// moves the inputs but not the campaign's cost.
PaperPlan make_paper_plan(std::uint64_t seed) {
  static const std::vector<std::vector<std::pair<double, double>>> kGroups{
      {{52.0, 56.0}, {60.0, 70.0}},
      {{90.0, 110.0}, {130.0, 150.0}},
  };
  Rng rng{seed * 2 + 1};
  PaperPlan plan;
  for (const auto& group : kGroups) {
    const auto& [a, b] = group[rng.below(group.size())];
    plan.fig09_t.push_back(a);
    plan.fig09_t.push_back(b);
  }
  return plan;
}

struct PaperOutputs {
  std::vector<models::Metrics> fig06;
  models::Metrics random6, sq6;
  approx::ExactOptimum opt6, opt5;
  models::Metrics random8, sq8;
  std::vector<models::Metrics> fig09;
  models::Metrics sq9;
  core::SweepStats stats06, stats09;
};

/// A t-sweep issued as one public call per shard of `plan` (each call a
/// one-shard sweep, so results and warm-start chains equal the single
/// call's), appending the points to `out` and merging the stats.
template <class Sweep>
void sweep_by_shard(Recorder& rec, const std::vector<double>& grid,
                    const core::SweepPlan& plan, std::vector<models::Metrics>& out,
                    core::SweepStats& stats, Sweep&& sweep) {
  for (const core::ShardRange& shard : core::plan_shards(grid.size(), plan.shard_size)) {
    const std::vector<double> ts(grid.begin() + static_cast<std::ptrdiff_t>(shard.begin),
                                 grid.begin() + static_cast<std::ptrdiff_t>(shard.end));
    rec.op(ts.size(), [&] {
      core::SweepStats st;
      const auto part = rec.call("core.sweep", [&] { return sweep(ts, &st); });
      out.insert(out.end(), part.begin(), part.end());
      stats.points += st.points;
      stats.warm.merge(st.warm);
    });
  }
}

PaperOutputs paper_pass(const PaperPlan& plan, Recorder& rec) {
  PaperOutputs out;
  const auto baseline = [&](models::Metrics& m, core::PolicyKind kind,
                            const core::ScenarioRequest& base) {
    rec.op(1, [&] {
      m = rec.call("core.scenario", [&] {
        return core::scenario_metrics(core::baseline_for(kind, base));
      });
    });
  };

  // Figures 6 and 7: the exponential t-sweep as the figure driver issues
  // it, one call over the whole grid (its points arrive together), and
  // its two baselines.
  const auto s6 = core::Fig6Scenario::make();
  const models::TagsParams base6 = s6.tags_at(s6.t_values.front());
  rec.op(s6.t_values.size(), [&] {
    out.fig06 = rec.call("core.sweep", [&] {
      return core::tags_t_sweep(base6, s6.t_values, kOneThread, &out.stats06);
    });
  });
  const core::ScenarioRequest req6 = core::request_for(base6);
  baseline(out.random6, core::PolicyKind::kRandom, req6);
  baseline(out.sq6, core::PolicyKind::kShortestQueue, req6);

  // Figure 8: one lambda row — the integer-t optimiser at n = 6 and n = 5.
  const models::TagsParams p8 = core::Fig8Scenario{}.tags_at(kFig08Lambda, 50.0);
  rec.op(1, [&] {
    out.opt6 = rec.call("approx.scan", [&] {
      return approx::optimise_tags_t_integer(p8, approx::Objective::kMinQueueLength, 30,
                                             75, 1);
    });
  });
  models::TagsParams p8n5 = p8;
  p8n5.n = 5;
  rec.op(1, [&] {
    out.opt5 = rec.call("approx.scan", [&] {
      return approx::optimise_tags_t_integer(p8n5, approx::Objective::kMinQueueLength,
                                             25, 70, 1);
    });
  });
  const core::ScenarioRequest req8 = core::request_for(p8);
  baseline(out.random8, core::PolicyKind::kRandom, req8);
  baseline(out.sq8, core::PolicyKind::kShortestQueue, req8);

  // Figures 9 and 10: one H2 t-sweep call over the seed's shards (sharded
  // as the published run was), and the shortest-queue baseline.
  const auto s9 = core::Fig9Scenario::make();
  const models::TagsH2Params base9 = s9.tags_at(s9.t_values.front());
  const core::SweepPlan pairs{.threads = 1, .shard_size = 2, .batch = 1};
  rec.op(plan.fig09_t.size(), [&] {
    out.fig09 = rec.call("core.sweep", [&] {
      return core::tags_h2_t_sweep(base9, plan.fig09_t, pairs, &out.stats09);
    });
  });
  baseline(out.sq9, core::PolicyKind::kShortestQueueH2, core::request_for(base9));
  return out;
}

void check_paper(const PaperPlan& plan, const PaperOutputs& o, const PaperRefs& ref,
                 Checks& chk) {
  const auto s6 = core::Fig6Scenario::make();
  for (std::size_t i = 0; i < s6.t_values.size(); ++i) {
    const std::size_t r6 = row_of(ref.fig06, s6.t_values[i]);
    const models::Metrics& m = o.fig06[i];
    expect_cell(chk, ref.fig06, "fig06", r6, "tags_EN_total", m.mean_total, 5);
    expect_cell(chk, ref.fig06, "fig06", r6, "tags_EN_q1", m.mean_q1, 5);
    expect_cell(chk, ref.fig06, "fig06", r6, "tags_EN_q2", m.mean_q2, 5);
  }
  expect_cell(chk, ref.fig06, "fig06", 0, "random_EN", o.random6.mean_total, 5);
  expect_cell(chk, ref.fig06, "fig06", 0, "shortest_queue_EN", o.sq6.mean_total, 5);

  const std::size_t r8 = row_of(ref.fig08, kFig08Lambda);
  expect_cell(chk, ref.fig08, "fig08", r8, "t_opt_n6", o.opt6.t, 5);
  expect_cell(chk, ref.fig08, "fig08", r8, "t_opt_n5", o.opt5.t, 5);
  expect_cell(chk, ref.fig08, "fig08", r8, "tags_W_n6", o.opt6.metrics.response_time, 5);
  expect_cell(chk, ref.fig08, "fig08", r8, "random_W", o.random8.response_time, 5);
  expect_cell(chk, ref.fig08, "fig08", r8, "shortest_queue_W", o.sq8.response_time, 5);

  for (std::size_t i = 0; i < plan.fig09_t.size(); ++i) {
    const models::Metrics& m = o.fig09[i];
    const std::size_t r9 = row_of(ref.fig09, plan.fig09_t[i]);
    expect_cell(chk, ref.fig09, "fig09", r9, "tags_W", m.response_time, 5);
    expect_cell(chk, ref.fig09, "fig09", r9, "shortest_queue_W", o.sq9.response_time, 5);
    const std::size_t r10 = row_of(ref.fig10, plan.fig09_t[i]);
    expect_cell(chk, ref.fig10, "fig10", r10, "tags_throughput", m.throughput, 6);
    expect_cell(chk, ref.fig10, "fig10", r10, "tags_loss_rate", m.loss_rate, 6);
    expect_cell(chk, ref.fig10, "fig10", r10, "shortest_queue_throughput",
                o.sq9.throughput, 6);
  }
}

// ---------------------------------------------------------------------------
// fast_paths: cold solves of structures the gated fast paths target, the
// paper's PEPA models from source, and one batched warm sweep.
// ---------------------------------------------------------------------------

enum class Kind { kTags, kTagsH2, kPepaTags, kPepaTagsH2, kBatchSweep };

struct Structure {
  std::string id;  ///< row key in reference/fast_paths.csv
  Kind kind = Kind::kTags;
  models::TagsParams tags;
  models::TagsH2Params h2;
  std::string pepa_source;  ///< PEPA kinds: generated before timing starts
};

models::TagsParams tags_shape(unsigned k1, unsigned k2, double t) {
  models::TagsParams p;  // lambda 5, mu 10, n 6: the fig06 point
  p.k1 = k1;
  p.k2 = k2;
  p.t = t;
  return p;
}

models::TagsH2Params h2_shape(unsigned k1, unsigned k2) {
  // The fig09 point (lambda 11, alpha 0.99, mu1 = 100 mu2) near its optimum.
  return models::TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, 12.0, 6, k1, k2);
}

/// The batched warm sweep's grid: 24 timeout rates on a deep/narrow chain.
std::vector<double> batch_sweep_grid() { return core::linspace(20.0, 135.0, 24); }

std::vector<Structure> fast_structures() {
  std::vector<Structure> v;
  const auto add = [&](const char* id, Kind kind, const models::TagsParams& tags,
                       const models::TagsH2Params& h2) {
    Structure s;
    s.id = id;
    s.kind = kind;
    s.tags = tags;
    s.h2 = h2;
    v.push_back(std::move(s));
  };
  const models::TagsH2Params no_h2;
  const models::TagsParams no_tags;
  // Deep/narrow TAGS and H2: the level-QBD gate's target.
  add("tags_k64_1", Kind::kTags, tags_shape(64, 1, 50.0), no_h2);
  add("tags_k128_2", Kind::kTags, tags_shape(128, 2, 50.0), no_h2);
  add("tags_k256_2", Kind::kTags, tags_shape(256, 2, 50.0), no_h2);
  add("h2_k64_1", Kind::kTagsH2, no_tags, h2_shape(64, 1));
  add("h2_k128_1", Kind::kTagsH2, no_tags, h2_shape(128, 1));
  // Rare-timeout square chains: the NCD aggregation-disaggregation target.
  add("tags_sq_t0.3", Kind::kTags, tags_shape(10, 10, 0.3), no_h2);
  add("tags_sq_t0.5", Kind::kTags, tags_shape(10, 10, 0.5), no_h2);
  add("tags_sq_t1", Kind::kTags, tags_shape(10, 10, 1.0), no_h2);
  // Contrast case: the square t = 50 chain that both gates decline.
  add("tags_sq_t50", Kind::kTags, tags_shape(10, 10, 50.0), no_h2);
  // The paper's PEPA models: Fig 3 at K = 10 and 20, Fig 5 at K = 10.
  add("pepa_fig3_k10", Kind::kPepaTags, tags_shape(10, 10, 50.0), no_h2);
  add("pepa_fig3_k20", Kind::kPepaTags, tags_shape(20, 20, 50.0), no_h2);
  add("pepa_fig5_k10", Kind::kPepaTagsH2, no_tags, h2_shape(10, 10));
  // One warm t-sweep on a deep/narrow chain at batch width 8.
  add("sweep_k128_2", Kind::kBatchSweep, tags_shape(128, 2, 50.0), no_h2);
  return v;
}

std::vector<Structure> fast_plan(std::uint64_t seed) {
  std::vector<Structure> v = fast_structures();
  Rng rng{seed * 2 + 1};
  shuffle(v, rng);
  for (Structure& s : v) {
    if (s.kind == Kind::kPepaTags) s.pepa_source = models::tags_pepa_source(s.tags);
    if (s.kind == Kind::kPepaTagsH2) s.pepa_source = models::tags_h2_pepa_source(s.h2);
  }
  return v;
}

/// Measures compared across constructions: queue lengths and throughput.
struct Measures {
  std::int64_t n_states = 0;
  double mean_q1 = 0.0;
  double mean_q2 = 0.0;
  double throughput = 0.0;
};

Measures measures_of(std::int64_t n, const models::Metrics& m) {
  return Measures{n, m.mean_q1, m.mean_q2, m.throughput};
}

/// Population means over the queue derivatives of the paper's PEPA
/// sources (Q1_i and its primed/class variants at node 1, likewise node 2).
double pepa_queue_mean(const pepa::SolvedModel& s, const std::vector<std::string>& names,
                       unsigned k) {
  double mean = 0.0;
  for (unsigned i = 1; i <= k; ++i) {
    for (const std::string& name : names) {
      mean += i * s.population_mean(name + "_" + std::to_string(i));
    }
  }
  return mean;
}

struct FastOutputs {
  std::map<std::string, std::vector<Measures>> results;  ///< per structure id
  std::map<std::string, bool> certified;
  std::int64_t sweep_points = 0;
  std::int64_t pepa_states = 0;
};

FastOutputs fast_pass(const std::vector<Structure>& plan, Recorder& rec) {
  FastOutputs out;
  for (const Structure& s : plan) {
    switch (s.kind) {
      case Kind::kTags:
      case Kind::kTagsH2: {
        rec.op(1, [&] {
          const auto model =
              rec.call("models.assemble", [&]() -> std::unique_ptr<models::SolvableModel> {
                if (s.kind == Kind::kTags) return std::make_unique<models::TagsModel>(s.tags);
                return std::make_unique<models::TagsH2Model>(s.h2);
              });
          const ctmc::SteadyStateResult r = rec.call(
              "ctmc.solve", [&] { return ctmc::steady_state(model->chain().generator()); });
          out.results[s.id] = {measures_of(model->n_states(), model->metrics_from(r.pi))};
          out.certified[s.id] = r.converged && r.certificate.ok();
        });
        break;
      }
      case Kind::kPepaTags:
      case Kind::kPepaTagsH2: {
        rec.op(1, [&] {
          pepa::DerivedModel dm = rec.call("pepa.derive", [&] {
            return pepa::derive(pepa::parse_model(s.pepa_source), "System");
          });
          const pepa::SolvedModel solved =
              rec.call("pepa.solve", [&] { return pepa::solve(std::move(dm)); });
          const bool h2 = s.kind == Kind::kPepaTagsH2;
          const Measures m = rec.call("pepa.measure", [&] {
            Measures pm;
            pm.n_states = solved.model.chain.n_states();
            pm.mean_q1 = pepa_queue_mean(solved, h2 ? std::vector<std::string>{"Q1", "Q1p"}
                                                    : std::vector<std::string>{"Q1"},
                                         h2 ? s.h2.k1 : s.tags.k1);
            pm.mean_q2 = pepa_queue_mean(solved,
                                         h2 ? std::vector<std::string>{"Q2", "Q2s", "Q2l"}
                                            : std::vector<std::string>{"Q2", "Q2p"},
                                         h2 ? s.h2.k2 : s.tags.k2);
            pm.throughput = solved.action_throughput("service1") +
                            solved.action_throughput("service2");
            return pm;
          });
          out.results[s.id] = {m};
          out.certified[s.id] =
              solved.solve_info.converged && solved.solve_info.certificate.ok();
          out.pepa_states += m.n_states;
        });
        break;
      }
      case Kind::kBatchSweep: {
        // Shards of 8 points, so each shard is one 8-wide batched solve.
        const core::SweepPlan plan{.threads = 1, .shard_size = 8, .batch = 8};
        std::vector<models::Metrics> sweep;
        core::SweepStats stats;
        sweep_by_shard(rec, batch_sweep_grid(), plan, sweep, stats,
                       [&](const std::vector<double>& ts, core::SweepStats* st) {
                         return core::tags_t_sweep(s.tags, ts, plan, st);
                       });
        const std::int64_t n = models::TagsModel::state_count(s.tags);
        std::vector<Measures> ms;
        for (const models::Metrics& m : sweep) ms.push_back(measures_of(n, m));
        out.results[s.id] = std::move(ms);
        out.certified[s.id] = stats.warm.uncertified == 0;
        out.sweep_points += static_cast<std::int64_t>(stats.points);
        break;
      }
    }
  }
  return out;
}

/// A structure's measures from the generic solvers, far more accurate than
/// the default chain: dense LU up to 6000 states, else plain Gauss-Seidel
/// to a residual of 1e-15. (At the default 1e-11, Gauss-Seidel is 2.7x off
/// on the t = 0.3 square chain's mean_q2 of 2.1e-9, and even at 1e-15 it
/// is 1.6e-4 off; the large chains' measures are all above 0.1.)
Measures reference_measures(const models::SolvableModel& m) {
  ctmc::SteadyStateOptions o;
  o.method = m.n_states() <= 6000 ? ctmc::SteadyStateMethod::kDenseLu
                                  : ctmc::SteadyStateMethod::kGaussSeidel;
  o.tol = 1e-15;
  o.max_iter = 5000000;
  const ctmc::SteadyStateResult r = ctmc::steady_state(m.chain().generator(), o);
  if (!r.converged) throw std::runtime_error("reference solve did not converge");
  return measures_of(m.n_states(), m.metrics_from(r.pi));
}

/// Reference measures of every fast_paths structure, keyed by id; sweeps
/// have one row per grid point.
std::map<std::string, std::vector<Measures>> generic_reference() {
  std::map<std::string, std::vector<Measures>> ref;
  for (const Structure& s : fast_structures()) {
    if (s.kind == Kind::kTagsH2 || s.kind == Kind::kPepaTagsH2) {
      ref[s.id] = {reference_measures(models::TagsH2Model(s.h2))};
    } else if (s.kind == Kind::kBatchSweep) {
      models::TagsModel m(s.tags);
      for (const double t : batch_sweep_grid()) {
        models::TagsParams p = s.tags;
        p.t = t;
        m.rebind(p);
        ref[s.id].push_back(reference_measures(m));
      }
    } else {
      ref[s.id] = {reference_measures(models::TagsModel(s.tags))};
    }
  }
  return ref;
}

/// reference/fast_paths.csv: id, point, n_states, mean_q1, mean_q2,
/// throughput (round-trip precision).
std::map<std::string, std::vector<Measures>> read_fast_reference(const std::string& path) {
  const CsvTable t = read_csv(path);
  std::map<std::string, std::vector<Measures>> ref;
  for (const auto& row : t.rows) {
    Measures m;
    m.n_states = std::stoll(row.at(2));
    m.mean_q1 = numio::parse_double(row.at(3)).value();
    m.mean_q2 = numio::parse_double(row.at(4)).value();
    m.throughput = numio::parse_double(row.at(5)).value();
    ref[row.at(0)].push_back(m);
  }
  return ref;
}

int write_fast_reference(const std::string& path) {
  std::ofstream out(path);
  out << "id,point,n_states,mean_q1,mean_q2,throughput\n";
  for (const auto& [id, rows] : generic_reference()) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Measures& m = rows[i];
      out << id << ',' << i << ',' << m.n_states << ',' << numio::format_roundtrip(m.mean_q1)
          << ',' << numio::format_roundtrip(m.mean_q2) << ','
          << numio::format_roundtrip(m.throughput) << '\n';
    }
  }
  return out ? 0 : 1;
}

/// Relative agreement on the measures: the reference comes from a
/// different solver (and, for PEPA, a different state order), so the bound
/// is the solvers' accuracy, not bit equality. The loosest case is NCD-AD
/// on the rare-timeout chains, whose mean_q2 (2e-9 to 4e-8) it leaves up to
/// 4e-6 relative off the dense-LU value; every other measure agrees within
/// 4e-7 (the stiff H2 chain's mean_q2 is the next loosest). The absolute
/// floor only covers a measure of exactly zero.
constexpr double kSolverRelTol = 1e-5;
constexpr double kSolverAbsTol = 1e-15;

bool close(double a, double b) {
  return std::fabs(a - b) <= kSolverRelTol * std::fabs(b) + kSolverAbsTol;
}

void expect_measures(Checks& chk, const std::string& what, const Measures& got,
                     const Measures& want) {
  chk.expect(got.n_states == want.n_states,
             what + ": " + std::to_string(got.n_states) + " states, reference " +
                 std::to_string(want.n_states));
  const auto num = [&](const char* name, double g, double w) {
    chk.expect(close(g, w), what + " " + name + ": got " + numio::format_roundtrip(g) +
                                ", reference " + numio::format_roundtrip(w));
  };
  num("mean_q1", got.mean_q1, want.mean_q1);
  num("mean_q2", got.mean_q2, want.mean_q2);
  num("throughput", got.throughput, want.throughput);
}

void check_fast(const FastOutputs& o, const std::map<std::string, std::vector<Measures>>& ref,
                Checks& chk) {
  for (const auto& [id, rows] : o.results) {
    chk.expect(o.certified.at(id), id + ": uncertified or unconverged result");
    const auto it = ref.find(id);
    if (it == ref.end() || it->second.size() != rows.size()) {
      chk.expect(false, id + ": no reference rows");
      continue;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      expect_measures(chk, id + "[" + std::to_string(i) + "]", rows[i], it->second[i]);
    }
  }
}

/// The PEPA-derived chains against the direct builders, live: same state
/// count and the same measures. Run once, after the timed passes.
void check_pepa_vs_direct(const FastOutputs& o, Checks& chk) {
  for (const Structure& s : fast_structures()) {
    if (s.kind != Kind::kPepaTags && s.kind != Kind::kPepaTagsH2) continue;
    Measures direct;
    if (s.kind == Kind::kPepaTags) {
      const models::TagsModel m(s.tags);
      direct = measures_of(m.n_states(), m.metrics());
    } else {
      const models::TagsH2Model m(s.h2);
      direct = measures_of(m.n_states(), m.metrics());
    }
    expect_measures(chk, s.id + " vs direct builder", o.results.at(s.id).front(), direct);
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_probe = false;
  std::size_t passes = 0;  ///< exact pass count (tests); 0: by time budget
  std::string reference_dir = "perfbench/reference";
};

/// Per-pass counts from the program's own registry and solve log.
void write_counts(obs::JsonWriter& w) {
  w.key("counters");
  w.begin_object();
  for (const obs::CounterSnapshot& c : obs::counter_snapshots()) {
    w.field(c.name, static_cast<std::int64_t>(c.value));
  }
  w.end_object();
  w.key("solves");
  w.begin_array();
  for (const obs::SolveRecord& r : obs::solve_records()) {
    if (r.context != "steady_state") continue;
    w.begin_object();
    w.field("method", r.method);
    w.field("attempts", r.attempts);
    w.field("n", static_cast<std::int64_t>(r.n));
    w.field("iterations", static_cast<std::int64_t>(r.iterations));
    w.field("certified", r.certified);
    w.field("converged", r.converged);
    w.end_object();
  }
  w.end_array();
}

/// Nonzeros of the generator of every chain size the campaign solves, for
/// the computed Gauss-Seidel flop and byte counts. Built after the passes.
void write_structure_sizes(obs::JsonWriter& w, const std::string& workload) {
  std::vector<std::pair<std::int64_t, std::int64_t>> sizes;  // (n, nnz)
  const auto add = [&](const models::SolvableModel& m) {
    sizes.emplace_back(m.n_states(), m.chain().generator().nnz());
  };
  if (workload == "paper_figures") {
    const auto s6 = core::Fig6Scenario::make();
    models::TagsParams p = core::Fig8Scenario{}.tags_at(kFig08Lambda, 50.0);
    add(models::TagsModel(s6.tags_at(50.0)));
    p.n = 5;
    add(models::TagsModel(p));
    add(models::TagsH2Model(core::Fig9Scenario::make().tags_at(50.0)));
  } else {
    for (const Structure& s : fast_structures()) {
      if (s.kind == Kind::kTagsH2 || s.kind == Kind::kPepaTagsH2) {
        add(models::TagsH2Model(s.h2));
      } else {
        add(models::TagsModel(s.tags));
      }
    }
  }
  w.key("structures");
  w.begin_array();
  for (const auto& [n, nnz] : sizes) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(n));
    w.value(static_cast<std::int64_t>(nnz));
    w.end_array();
  }
  w.end_array();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int run_campaign(const Options& opt) {
  const bool paper = opt.workload == "paper_figures";
  if (!paper && opt.workload != "fast_paths") {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  // Set-up: references and the seeded plan (inputs), nothing timed.
  PaperRefs refs;
  std::map<std::string, std::vector<Measures>> fast_ref;
  PaperPlan pplan;
  std::vector<Structure> fplan;
  if (paper) {
    const std::string d = opt.reference_dir + "/";
    refs = PaperRefs{read_csv(d + "fig06.csv"), read_csv(d + "fig08.csv"),
                     read_csv(d + "fig09.csv"), read_csv(d + "fig10.csv")};
    pplan = make_paper_plan(opt.seed);
  } else {
    fast_ref = read_fast_reference(opt.reference_dir + "/fast_paths.csv");
    fplan = fast_plan(opt.seed);
  }
  const std::int64_t ready_ns = now_ns();
  if (opt.setup_probe) {
    obs::JsonWriter w(17);
    w.begin_object();
    w.field("ready_ns", static_cast<std::int64_t>(ready_ns));
    w.end_object();
    std::printf("%s\n", std::move(w).str().c_str());
    return 0;
  }

  // Timed passes. A new pass starts only while the budget leaves room for
  // one more of median length; at least three run (four when traced, so
  // two traced and two untraced passes can be compared).
  const std::size_t min_passes = opt.trace ? 4 : 3;
  std::vector<PassRecord> passes;
  std::vector<std::string> pass_counts;
  Checks chk;
  FastOutputs last_fast;
  while (true) {
    const double elapsed = static_cast<double>(now_ns() - ready_ns) * 1e-9;
    if (opt.passes > 0) {
      if (passes.size() >= opt.passes) break;
    } else if (passes.size() >= min_passes) {
      std::vector<double> walls;
      for (const PassRecord& p : passes) walls.push_back(p.wall_s);
      std::nth_element(walls.begin(), walls.begin() + walls.size() / 2, walls.end());
      if (elapsed + walls[walls.size() / 2] > opt.seconds) break;
    }
    obs::reset_metrics();
    PassRecord pass;
    pass.traced = opt.trace && passes.size() % 2 == 1;
    Recorder rec(pass);
    const std::int64_t t0 = now_ns();
    std::optional<PaperOutputs> po;
    std::optional<FastOutputs> fo;
    if (paper) {
      po = paper_pass(pplan, rec);
    } else {
      fo = fast_pass(fplan, rec);
    }
    pass.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    // Outside the timed window: checks and the pass's program counts.
    check_solve_log(chk);
    obs::JsonWriter cw(17);
    cw.begin_object();
    write_counts(cw);
    if (paper) {
      check_paper(pplan, *po, refs, chk);
      cw.field("sweep_points",
               static_cast<std::int64_t>(po->stats06.points + po->stats09.points));
      cw.field("scan_solves", static_cast<std::int64_t>(po->opt6.solves + po->opt5.solves));
      cw.field("pepa_states", static_cast<std::int64_t>(0));
    } else {
      check_fast(*fo, fast_ref, chk);
      cw.field("sweep_points", fo->sweep_points);
      cw.field("scan_solves", static_cast<std::int64_t>(0));
      cw.field("pepa_states", fo->pepa_states);
      last_fast = std::move(*fo);
    }
    cw.end_object();
    pass_counts.push_back(std::move(cw).str());
    passes.push_back(std::move(pass));
  }
  const double rss_mb = peak_rss_mb();
  if (!paper) check_pepa_vs_direct(last_fast, chk);

  obs::JsonWriter w(17);
  w.begin_object();
  w.field("workload", opt.workload);
  w.field("ready_ns", static_cast<std::int64_t>(ready_ns));
  w.field("peak_rss_mb", rss_mb);
  w.field("attempted", chk.attempted);
  w.field("failed", chk.failed);
  w.key("failures");
  w.begin_array();
  for (const std::string& f : chk.failures) w.value(f);
  w.end_array();
  w.key("passes");
  w.begin_array();
  for (const PassRecord& p : passes) {
    w.begin_object();
    w.field("traced", p.traced);
    w.field("wall_s", p.wall_s);
    w.key("ops");
    w.begin_array();
    for (const Op& op : p.ops) {
      w.begin_array();
      w.value(op.wall_s);
      w.value(static_cast<std::int64_t>(op.points));
      w.end_array();
    }
    w.end_array();
    if (p.traced) {
      w.key("spans");
      w.begin_array();
      for (const Span& s : p.spans) {
        w.begin_array();
        w.value(s.name);
        w.value(static_cast<std::int64_t>(s.start_ns));
        w.value(static_cast<std::int64_t>(s.end_ns));
        w.end_array();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  // Counts of every pass are emitted verbatim (run.py checks they agree).
  // The object stays open here: the raw count objects are appended as text.
  std::string out = std::move(w).str();
  out += ",\"pass_counts\":[";
  for (std::size_t i = 0; i < pass_counts.size(); ++i) {
    out += (i ? "," : "") + pass_counts[i];
  }
  out += "]";
  if (opt.trace) {
    obs::JsonWriter sw(17);
    sw.begin_object();
    write_structure_sizes(sw, opt.workload);
    sw.end_object();
    std::string s = std::move(sw).str();
    out += "," + s.substr(1, s.size() - 2);
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

/// How the program was built and runs, for the run's fingerprint.
int run_fingerprint() {
  obs::JsonWriter w(17);
  w.begin_object();
  w.field("compiler", PERFBENCH_COMPILER);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("obs_compiled_in", TAGS_OBS_ENABLED != 0);
  w.field("obs_level", static_cast<std::int64_t>(static_cast<int>(obs::level())));
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
  return 0;
}

/// Generator sizes of the chains behind request lines on stdin: one
/// [n, nnz] line per TAGS or TAGS-H2 request (the serve_mix Gauss-Seidel
/// flop and byte counts need the nonzeros, which the server does not log).
int run_chain_sizes() {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::string error;
    const auto req = serve::parse_request(line, &error);
    if (!req) continue;
    std::unique_ptr<models::SolvableModel> m;
    if (req->scenario.policy == core::PolicyKind::kTags) {
      m = std::make_unique<models::TagsModel>(req->scenario.tags_params());
    } else if (req->scenario.policy == core::PolicyKind::kTagsH2) {
      m = std::make_unique<models::TagsH2Model>(req->scenario.tags_h2_params());
    } else {
      continue;
    }
    std::printf("[%lld,%zu]\n", static_cast<long long>(m->n_states()),
                m->chain().generator().nnz());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
        return argv[++i];
      };
      if (a == "--chain-sizes") return run_chain_sizes();
      if (a == "--fingerprint") return run_fingerprint();
      if (a == "--write-fast-reference") return write_fast_reference(value());
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() == "1";
      } else if (a == "--reference") {
        opt.reference_dir = value();
      } else if (a == "--passes") {
        opt.passes = std::stoul(value());
      } else if (a == "--setup-probe") {
        opt.setup_probe = true;
      } else {
        throw std::runtime_error("unknown argument " + a);
      }
    }
    return run_campaign(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
