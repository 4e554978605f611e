// Figure 12: throughput against the proportion of short jobs alpha, same
// setting as Figure 11 but with TAGS tuned for maximum throughput.
//
// Shape to reproduce: TAGS throughput decreases slightly as alpha grows
// (levelling off toward 0.99) while random and shortest queue improve —
// the mirrored trend of Figure 11.
#include <chrono>

#include "approx/optimizer.hpp"
#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "ctmc/digest.hpp"

int main(int argc, char** argv) {
  using namespace tags;
  bench::figure_header(
      "Figure 12", "throughput vs proportion of short jobs",
      "lambda=11, mu1=10*mu2, mean demand 0.1, n=6, K=10; TAGS at optimal t");

  auto scenario = core::Fig11Scenario::make();
  scenario.alphas = {0.89, 0.91, 0.93, 0.95, 0.97, 0.99};

  bench::store_from_args(argc, argv);
  std::uint64_t digest = ctmc::fnv1a64("fig12", 5);
  for (const double a : scenario.alphas) digest = ctmc::fnv1a64_double(a, digest);
  bench::RowJournal journal("fig12", digest);

  core::Table table({"alpha", "tags_t_opt", "tags_throughput", "random_throughput",
                     "shortest_queue_throughput"});
  table.set_precision(6);
  for (std::size_t i = 0; i < scenario.alphas.size(); ++i) {
    const double alpha = scenario.alphas[i];
    std::vector<double> row(5);
    if (!journal.load(i, row)) {
      const auto t0 = std::chrono::steady_clock::now();
      models::TagsH2Params p = scenario.tags_at(alpha, 20.0);
      const auto opt = approx::optimise_tags_h2_t_coarse(
          p, approx::Objective::kMaxThroughput, 4, 100, 6);
      const core::ScenarioRequest base_req = core::request_for(p);
      const auto random = core::scenario_metrics(
          core::baseline_for(core::PolicyKind::kRandomH2, base_req));
      const auto sq = core::scenario_metrics(
          core::baseline_for(core::PolicyKind::kShortestQueueH2, base_req));
      row = {alpha, opt.t, opt.metrics.throughput, random.throughput,
             sq.throughput};
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
  bench::emit(table, "fig12.csv");
  return 0;
}
