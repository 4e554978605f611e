// Figure 11: average response time against the proportion of short jobs
// alpha in [0.89, 0.99], with mu1 = 10 mu2 and mean demand 0.1 at lambda
// = 11. TAGS is run at its per-alpha optimal t (minimum W).
//
// Shape to reproduce: TAGS response time *increases* with alpha while
// random and shortest queue *decrease* — as alpha grows the long jobs get
// rarer (but longer), which helps the memoryless policies and erodes the
// balance TAGS exploits.
#include <chrono>

#include "approx/optimizer.hpp"
#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "ctmc/digest.hpp"

int main(int argc, char** argv) {
  using namespace tags;
  bench::figure_header(
      "Figure 11", "average response time vs proportion of short jobs",
      "lambda=11, mu1=10*mu2, mean demand 0.1, n=6, K=10; TAGS at optimal t");

  auto scenario = core::Fig11Scenario::make();
  // 6 alphas keep the optimisation affordable; the trend needs no more.
  scenario.alphas = {0.89, 0.91, 0.93, 0.95, 0.97, 0.99};

  // One coarse t-optimisation per alpha — the most expensive rows in the
  // whole figure suite, so each is journalled as it completes.
  bench::store_from_args(argc, argv);
  std::uint64_t digest = ctmc::fnv1a64("fig11", 5);
  for (const double a : scenario.alphas) digest = ctmc::fnv1a64_double(a, digest);
  bench::RowJournal journal("fig11", digest);

  core::Table table({"alpha", "tags_t_opt", "tags_W", "random_W",
                     "shortest_queue_W"});
  table.set_precision(5);
  for (std::size_t i = 0; i < scenario.alphas.size(); ++i) {
    const double alpha = scenario.alphas[i];
    std::vector<double> row(5);
    if (!journal.load(i, row)) {
      const auto t0 = std::chrono::steady_clock::now();
      models::TagsH2Params p = scenario.tags_at(alpha, 20.0);
      const auto opt = approx::optimise_tags_h2_t_coarse(
          p, approx::Objective::kMinResponseTime, 4, 100, 6);
      const core::ScenarioRequest base_req = core::request_for(p);
      const auto random = core::scenario_metrics(
          core::baseline_for(core::PolicyKind::kRandomH2, base_req));
      const auto sq = core::scenario_metrics(
          core::baseline_for(core::PolicyKind::kShortestQueueH2, base_req));
      row = {alpha, opt.t, opt.metrics.response_time, random.response_time,
             sq.response_time};
      journal.commit(i, row,
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    table.add_row(row);
  }
  if (journal.resumed() > 0) {
    std::printf("[store: %zu/%zu rows resumed]\n", journal.resumed(),
                scenario.alphas.size());
  }
  bench::emit(table, "fig11.csv");
  return 0;
}
