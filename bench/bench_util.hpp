// Shared helpers for the figure-reproduction binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "core/table.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"
#include "store/sweep_journal.hpp"

namespace tags::bench {

/// Process-wide durable store handle, opened by the first `--store=DIR` a
/// driver parses (figure drivers via sweep helpers, micro benches via
/// consume_export_flags). Null when persistence was not requested.
inline std::unique_ptr<store::SolveStore>& store_handle() {
  static std::unique_ptr<store::SolveStore> s;
  return s;
}

[[nodiscard]] inline store::SolveStore* bench_store() { return store_handle().get(); }

/// Open the store at `dir` (once; later calls with a different path are
/// ignored). Open failures disable persistence with a warning rather than
/// failing the bench — the figures themselves never depend on the store.
inline void open_store(const std::string& dir) {
  if (dir.empty() || store_handle()) return;
  try {
    store_handle() = std::make_unique<store::SolveStore>(dir);
    std::printf("[store: %s]\n", dir.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[cannot open store %s: %s; persistence disabled]\n",
                 dir.c_str(), e.what());
  }
}

/// Scan argv for --store=DIR (non-consuming, like sweep_plan_from_args)
/// and open it. Returns the handle (null when absent or failed).
inline store::SolveStore* store_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--store=", 0) == 0) open_store(arg.substr(8));
  }
  return bench_store();
}

/// Sweep execution plan for the figure drivers: `--threads=N` on the
/// command line wins, otherwise TAGS_SWEEP_THREADS, otherwise hardware
/// concurrency (see ThreadPool::default_threads). The thread count is an
/// execution knob: the shard plan stays at its grid-determined default and
/// results are identical at any setting (see DESIGN.md "Parallel sweep
/// engine").
inline core::SweepPlan sweep_plan_from_args(int argc, char** argv) {
  core::SweepPlan plan;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      const long v = std::strtol(arg.c_str() + 10, nullptr, 10);
      if (v > 0) plan.threads = static_cast<unsigned>(v);
    }
  }
  if (plan.threads == 0) plan.threads = core::ThreadPool::default_threads();
  return plan;
}

/// One-line summary of how a sharded sweep executed. A nonzero uncertified
/// count means some accepted solve failed result certification — the table
/// printed above it should not be trusted without a look at the solve log.
inline void print_sweep_stats(const core::SweepStats& stats) {
  std::printf("[sweep: %zu points, %zu shards (%zu resumed), %u threads; warm-start "
              "hits/misses/cleared/predicted %llu/%llu/%llu/%llu; uncertified %llu]\n",
              stats.points, stats.shards, stats.resumed, stats.threads,
              static_cast<unsigned long long>(stats.warm.hits),
              static_cast<unsigned long long>(stats.warm.misses),
              static_cast<unsigned long long>(stats.warm.cleared),
              static_cast<unsigned long long>(stats.warm.predicted),
              static_cast<unsigned long long>(stats.warm.uncertified));
}

/// Print the standard header for a figure reproduction. Also installs a
/// JSONL trace sink when TAGS_OBS_TRACE_FILE names a path (pair with
/// TAGS_OBS_LEVEL=2 to capture per-iteration solver residuals).
inline void figure_header(const std::string& id, const std::string& description,
                          const std::string& params) {
#if TAGS_OBS_ENABLED
  if (const char* trace_file = std::getenv("TAGS_OBS_TRACE_FILE")) {
    auto sink = std::make_shared<obs::JsonlSink>(trace_file);
    if (sink->ok()) {
      obs::install_trace_sink(std::move(sink));
      std::printf("[trace events -> %s]\n", trace_file);
    } else {
      std::fprintf(stderr, "[cannot open trace file %s; tracing disabled]\n",
                   trace_file);
    }
  }
#endif
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), description.c_str());
  std::printf("paper: Thomas, 'Modelling job allocation where service\n");
  std::printf("duration is unknown' (2006); parameters: %s\n", params.c_str());
  std::printf("==============================================================\n");
}

/// Exporter destinations parsed from the command line: --trace-chrome=PATH
/// (Chrome Trace Event JSON of the span store) and --metrics-prom=PATH
/// (Prometheus text exposition). Process-wide so emit_telemetry can flush
/// them next to the native JSON without threading paths through every
/// figure driver.
struct ExportFlags {
  std::string trace_chrome;
  std::string metrics_prom;
};

inline ExportFlags& export_flags() {
  static ExportFlags f;
  return f;
}

/// Parse and REMOVE --trace-chrome= / --metrics-prom= from argv, updating
/// argc, so the remaining arguments can be handed to google-benchmark's
/// parser (which rejects flags it does not know).
inline void consume_export_flags(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-chrome=", 0) == 0) {
      export_flags().trace_chrome = arg.substr(15);
    } else if (arg.rfind("--metrics-prom=", 0) == 0) {
      export_flags().metrics_prom = arg.substr(15);
    } else if (arg.rfind("--store=", 0) == 0) {
      open_store(arg.substr(8));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
}

/// Flush the optional exporter files requested via parse_export_flags.
inline void emit_export_files(const std::string& process_name) {
  const ExportFlags& f = export_flags();
  if (!f.trace_chrome.empty()) {
    if (obs::write_chrome_trace(f.trace_chrome, process_name)) {
      std::printf("[chrome trace written: %s]\n", f.trace_chrome.c_str());
    } else {
      std::fprintf(stderr, "[cannot write chrome trace %s]\n",
                   f.trace_chrome.c_str());
    }
  }
  if (!f.metrics_prom.empty()) {
    if (obs::write_prometheus(f.metrics_prom)) {
      std::printf("[prometheus metrics written: %s]\n", f.metrics_prom.c_str());
    } else {
      std::fprintf(stderr, "[cannot write prometheus metrics %s]\n",
                   f.metrics_prom.c_str());
    }
  }
}

/// Write the bench telemetry JSON (timers, counters, solve log, spans) for
/// the bench identified by `id` into results/<id>_telemetry.json, plus any
/// exporter files requested on the command line. Schema:
/// tools/check_bench_json.py; documented in README "Observability".
inline void emit_telemetry(const std::string& id) {
  const std::string path = "results/" + id + "_telemetry.json";
  if (obs::write_telemetry_json(path, id)) {
    std::printf("[telemetry written: %s]\n", path.c_str());
  } else {
    std::printf("[telemetry not written]\n");
  }
  emit_export_files(id);
}

/// Print a table, (best effort) save the CSV next to the binary, and emit
/// the per-bench telemetry JSON under results/. With --store, the rendered
/// CSV is also committed as a kBench record (name = csv stem), so
/// `store_query --dump-bench=fig06` can reproduce any figure's table from
/// the durable log alone.
inline void emit(core::Table& table, const std::string& csv_name) {
  table.print(std::cout);
  if (table.save_csv(csv_name)) {
    std::printf("[csv written: %s]\n", csv_name.c_str());
  } else {
    std::printf("[csv not written]\n");
  }
  const std::string stem = csv_name.substr(0, csv_name.rfind('.'));
  if (store::SolveStore* s = bench_store()) {
    std::ostringstream csv;
    table.write_csv(csv);
    const std::string text = csv.str();
    store::Record rec;
    rec.key = store::RecordKey{store::RecordKind::kBench, stem, 0, 0};
    rec.payload.assign(text.begin(), text.end());
    s->append_commit(rec);
  }
  emit_telemetry(stem);
  std::printf("\n");
}

/// Resumable row journal for the drivers whose outer loop is not a
/// sharded sweep (fig08/fig11/fig12: one expensive optimiser/solve run per
/// table row). Each completed row is committed as a kShard record (point =
/// row index) keyed by a digest of the row grid; a rerun against the same
/// store replays committed rows bit-exactly — doubles round-trip by bit
/// pattern, so the rendered CSV is byte-identical. Inactive (load always
/// false, commit a no-op) without --store.
class RowJournal {
 public:
  RowJournal(const std::string& bench_id, std::uint64_t config_digest) {
    if (bench_store() != nullptr) {
      journal_.emplace(*bench_store(), bench_id, config_digest);
    }
  }

  /// Replay one committed row into `out` (size must match the committed
  /// column count exactly); false when absent, inactive, or mismatched.
  [[nodiscard]] bool load(std::size_t row, std::vector<double>& out) {
    if (!journal_) return false;
    store::WarmCounters wc{};
    const auto payload = journal_->load_shard(row, &wc);
    if (!payload) return false;
    store::BufReader rd(*payload);
    const std::uint64_t n = rd.get_u64();
    if (!rd.ok() || n != out.size()) return false;
    for (double& v : out) v = rd.get_f64();
    if (!rd.ok() || !rd.at_end()) return false;
    ++resumed_;
    return true;
  }

  void commit(std::size_t row, const std::vector<double>& values, double elapsed_ms) {
    if (!journal_) return;
    store::BufWriter w;
    w.put_u64(values.size());
    for (const double v : values) w.put_f64(v);
    journal_->commit_shard(row, w.bytes(), store::WarmCounters{}, elapsed_ms);
  }

  [[nodiscard]] std::size_t resumed() const noexcept { return resumed_; }

 private:
  std::optional<store::SweepJournal> journal_;
  std::size_t resumed_ = 0;
};

}  // namespace tags::bench
