// Writes the paper's PEPA models (Figures 3 and 5, Appendices A and B) as
// .pepa files, ready for the pepa CLI:
//
//   ./tools/export_models [output_dir]
//
// Observability flags:
//   --metrics-out <file>       write the metrics/telemetry JSON on exit
//   --trace-chrome=<file>      write the span store as a Chrome trace on exit
//   --metrics-prom=<file>      write Prometheus text exposition on exit
//   --obs-level <0|1>          override TAGS_OBS_LEVEL for this run (also
//                              "off", "metrics")
//
// When any telemetry flag is given, each exported model is additionally
// parsed and derived so that the emitted metrics cover the real state-space
// construction (states, transitions, dedup hit rate, and the pepa/derive
// span with its per-name timer).
//
// Exit code 0 when every model was written, 1 on a bad flag or when a file
// could not be written (with a message on stderr).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "models/pepa_sources.hpp"
#include "obs/obs.hpp"
#include "pepa/parser.hpp"
#include "pepa/to_ctmc.hpp"

int main(int argc, char** argv) {
  using namespace tags;
  using namespace tags::models;

  std::vector<std::string> pos;
  std::string metrics_path;
  std::string chrome_path;
  std::string prom_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--metrics-out") {
      metrics_path = value("--metrics-out");
    } else if (arg.rfind("--trace-chrome=", 0) == 0) {
      chrome_path = arg.substr(15);
    } else if (arg.rfind("--metrics-prom=", 0) == 0) {
      prom_path = arg.substr(15);
    } else if (arg == "--obs-level") {
      const char* text = value("--obs-level");
      const std::optional<obs::Level> level = obs::parse_level(text);
      if (!level) {
        std::fprintf(stderr, "error: --obs-level expects 0, 1, off or metrics, got '%s'\n",
                     text);
        return 1;
      }
      obs::set_level(*level);
    } else {
      pos.push_back(arg);
    }
  }
  const bool derive_exports =
      !metrics_path.empty() || !chrome_path.empty() || !prom_path.empty();

  const std::filesystem::path dir = !pos.empty() ? pos[0] : "pepa_models";

  TagsParams tags_p;  // paper defaults
  tags_p.t = 51.0;
  const auto h2_p = TagsH2Params::from_ratio(11.0, 0.99, 100.0, 0.1, 12.0);
  const std::pair<const char*, std::string> models[] = {
      {"tags_fig3.pepa", tags_pepa_source(tags_p)},
      {"tags_h2_fig5.pepa", tags_h2_pepa_source(h2_p)},
      {"random_appendix_a.pepa",
       random_pepa_source({.lambda = 5.0, .mu = 10.0, .k = 10, .p1 = 0.5})},
      {"shortest_queue_appendix_b.pepa",
       shortest_queue_pepa_source({.lambda = 5.0, .mu = 10.0, .k = 10})},
  };
  for (const auto& [name, text] : models) {
    const std::string path = (dir / name).string();
    // Creates the directory, and never leaves a partial file behind.
    if (!obs::write_text_file_atomic(path, text)) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), text.size());
    if (derive_exports) {
      const auto dm = pepa::derive(pepa::parse_model(text));
      std::printf("  derived: %lld states, %zu transitions\n",
                  static_cast<long long>(dm.chain.n_states()),
                  dm.chain.transitions().size());
    }
  }

  if (!metrics_path.empty() &&
      !obs::write_telemetry_json(metrics_path, "export_models")) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n",
                 metrics_path.c_str());
  }
  if (!chrome_path.empty() &&
      !obs::write_chrome_trace(chrome_path, "export_models")) {
    std::fprintf(stderr, "warning: could not write chrome trace to %s\n",
                 chrome_path.c_str());
  }
  if (!prom_path.empty() && !obs::write_prometheus(prom_path)) {
    std::fprintf(stderr, "warning: could not write prometheus metrics to %s\n",
                 prom_path.c_str());
  }
  return 0;
}
