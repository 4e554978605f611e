// Figure 8: average response time against the arrival rate, with TAGS
// tuned (integer t minimising the mean queue length, the paper's
// procedure) at each lambda, versus random allocation and shortest queue.
//
// The paper quotes optimal integer t = 51, 49, 45, 42 for lambda = 5, 7,
// 9, 11; the corresponding optimum of this implementation is printed for
// comparison. Shape to reproduce: all three curves grow with lambda, with
// TAGS worst throughout (exponential demands) and the gap widening with
// load.
#include <chrono>

#include "approx/optimizer.hpp"
#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "ctmc/digest.hpp"

int main(int argc, char** argv) {
  using namespace tags;
  bench::figure_header("Figure 8", "average response time vs arrival rate",
                       "mu=10, n=6, K=10; TAGS at per-lambda optimal integer t");

  const core::Fig8Scenario scenario;
  const std::vector<unsigned> paper_t{51, 49, 45, 42};

  // Each lambda row runs two integer-t optimisations (dozens of solves);
  // with --store every finished row is committed, so an interrupted run
  // resumes from the next lambda instead of the first.
  bench::store_from_args(argc, argv);
  std::uint64_t digest = ctmc::fnv1a64("fig08", 5);
  for (const double l : scenario.lambdas) digest = ctmc::fnv1a64_double(l, digest);
  bench::RowJournal journal("fig08", digest);

  core::Table table({"lambda", "t_opt_n6", "t_opt_n5", "paper_t_opt", "tags_W_n6",
                     "random_W", "shortest_queue_W"});
  table.set_precision(5);
  for (std::size_t i = 0; i < scenario.lambdas.size(); ++i) {
    const double lambda = scenario.lambdas[i];
    std::vector<double> row(7);
    if (!journal.load(i, row)) {
      const auto t0 = std::chrono::steady_clock::now();
      models::TagsParams p = scenario.tags_at(lambda, 50.0);
      const auto opt = approx::optimise_tags_t_integer(
          p, approx::Objective::kMinQueueLength, 30, 75);
      // The paper's solved model has 4331 states == the state-count formula at
      // n = 5 (DESIGN.md); at n = 5 the integer optima land on the paper's
      // quoted values almost exactly.
      models::TagsParams p5 = p;
      p5.n = 5;
      const auto opt5 = approx::optimise_tags_t_integer(
          p5, approx::Objective::kMinQueueLength, 25, 70);
      const core::ScenarioRequest base_req = core::request_for(p);
      const auto random = core::scenario_metrics(
          core::baseline_for(core::PolicyKind::kRandom, base_req));
      const auto sq = core::scenario_metrics(
          core::baseline_for(core::PolicyKind::kShortestQueue, base_req));
      row = {lambda, opt.t, opt5.t, static_cast<double>(paper_t[i]),
             opt.metrics.response_time, random.response_time, sq.response_time};
      journal.commit(i, row,
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    table.add_row(row);
  }
  if (journal.resumed() > 0) {
    std::printf("[store: %zu/%zu rows resumed]\n", journal.resumed(),
                scenario.lambdas.size());
  }
  bench::emit(table, "fig08.csv");
  std::printf("note: t_opt_n5 reproduces the paper's quoted optima (51, 49, 45,\n"
              "42) to within +-1 — consistent with the 4331-state count, the\n"
              "paper's solved model used n = 5 (see DESIGN.md / EXPERIMENTS.md).\n"
              "The equivalent timeout *durations* agree for both n: e.g.\n"
              "6/51 = 0.118 (n=5) vs 7/58 = 0.121 (n=6) at lambda = 5.\n\n");
  return 0;
}
