// pepa — command-line front end to the PEPA engine.
//
//   pepa derive  <model.pepa> [System]   state space + validation summary
//   pepa solve   <model.pepa> [System]   steady state, throughputs, top states
//   pepa fluid   <model.pepa> [System]   fluid translation + ODE fixed point
//   pepa check   <model.pepa>            static validation only
//   pepa print   <model.pepa>            parse and pretty-print (round trip)
//
// Observability flags (anywhere on the command line):
//   --metrics-out <file>   write the metrics/telemetry JSON on exit
//   --obs-level <0|1>      override TAGS_OBS_LEVEL for this run (also "off",
//                          "metrics")
//
// Exit code 0 on success, 1 on any error (with a message on stderr).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "ctmc/measures.hpp"
#include "obs/obs.hpp"
#include "pepa/fluid.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/to_ctmc.hpp"
#include "pepa/validate.hpp"

namespace {

using namespace tags;

int usage() {
  std::fprintf(stderr,
               "usage: pepa [--metrics-out <file>] [--obs-level <0|1>]\n"
               "            <derive|solve|fluid|check|print> <model.pepa> "
               "[SystemName]\n");
  return 1;
}

std::string slurp(const char* path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error(std::string("cannot open ") + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void report_model_checks(const pepa::Model& model) {
  const auto report = pepa::check_model(model);
  for (const auto& p : report.problems) std::printf("  [warning] %s\n", p.c_str());
  if (report.problems.empty()) std::printf("  static checks: ok\n");
}

int cmd_check(const pepa::Model& model) {
  std::printf("parsed: %zu parameter(s), %zu definition(s)\n", model.params.size(),
              model.definitions.size());
  report_model_checks(model);
  return 0;
}

int cmd_print(const pepa::Model& model) {
  std::fputs(pepa::to_source(model).c_str(), stdout);
  return 0;
}

int cmd_derive(const pepa::Model& model, const std::string& system) {
  const auto dm = pepa::derive(model, system);
  std::printf("states: %lld\n", static_cast<long long>(dm.chain.n_states()));
  std::printf("transitions: %zu\n", dm.chain.transitions().size());
  std::printf("sequential components: %zu\n", dm.n_components);
  const auto report = pepa::check_derived(dm);
  if (report.ok) {
    std::printf("derived checks: ok (irreducible, deadlock-free)\n");
  } else {
    for (const auto& p : report.problems) std::printf("  [problem] %s\n", p.c_str());
  }
  return report.ok ? 0 : 1;
}

int cmd_solve(const pepa::Model& model, const std::string& system) {
  auto solved = pepa::solve(pepa::derive(model, system));
  std::printf("states: %lld, residual %.2e\n",
              static_cast<long long>(solved.model.chain.n_states()),
              solved.solve_info.residual);
  std::printf("\naction throughputs:\n");
  for (std::size_t a = 1; a < solved.model.chain.label_names().size(); ++a) {
    std::printf("  %-20s %.8g\n", solved.model.chain.label_names()[a].c_str(),
                ctmc::throughput(solved.model.chain, solved.pi,
                                 static_cast<ctmc::label_t>(a)));
  }
  std::vector<std::size_t> order(solved.pi.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return solved.pi[a] > solved.pi[b]; });
  std::printf("\nmost probable states:\n");
  for (std::size_t r = 0; r < std::min<std::size_t>(10, order.size()); ++r) {
    const std::size_t s = order[r];
    std::string desc;
    for (std::size_t l = 0; l < solved.model.n_components; ++l) {
      if (l > 0) desc += " | ";
      desc += solved.model.local_name(s, l);
    }
    std::printf("  %.6f  %s\n", solved.pi[s], desc.c_str());
  }
  return 0;
}

int cmd_fluid(const pepa::Model& model, const std::string& system) {
  const pepa::FluidModel fm(model, system);
  std::printf("population groups: %zu, ODE dimension: %zu\n", fm.groups().size(),
              fm.dimension());
  for (std::size_t g = 0; g < fm.groups().size(); ++g) {
    std::printf("  group %zu: count %u, %zu derivatives\n", g, fm.groups()[g].count,
                fm.groups()[g].derivatives.size());
  }
  const auto ss = fm.steady_state();
  std::printf("fixed point %s after t = %.1f:\n",
              ss.converged ? "reached" : "NOT reached", ss.time);
  for (std::size_t g = 0; g < fm.groups().size(); ++g) {
    for (pepa::seq_id s : fm.groups()[g].derivatives) {
      const auto v = fm.variable(g, s);
      std::printf("  x[%s] = %.6f\n", fm.derivative_name(s).c_str(),
                  ss.y[static_cast<std::size_t>(v)]);
    }
  }
  return ss.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string metrics_path;
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
  if (pos.size() < 2) return usage();
  const std::string cmd = pos[0];
  const std::string system = pos.size() > 2 ? pos[2] : "";
  const auto finish = [&](int rc) {
    if (!metrics_path.empty() &&
        !obs::write_telemetry_json(metrics_path, "pepa_cli." + cmd)) {
      std::fprintf(stderr, "warning: could not write metrics to %s\n",
                   metrics_path.c_str());
    }
    return rc;
  };
  try {
    const pepa::Model model = pepa::parse_model(slurp(pos[1].c_str()));
    if (cmd == "check") return finish(cmd_check(model));
    if (cmd == "print") return finish(cmd_print(model));
    if (cmd == "derive") return finish(cmd_derive(model, system));
    if (cmd == "solve") return finish(cmd_solve(model, system));
    if (cmd == "fluid") return finish(cmd_fluid(model, system));
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return finish(1);
  }
}
