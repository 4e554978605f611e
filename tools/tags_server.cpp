// tags_server: the long-lived analysis daemon. Listens on a Unix-domain
// socket for newline-delimited JSON scenario requests (see serve/request.hpp
// and DESIGN.md "The analysis server"), schedules them through a prioritized
// job queue onto the work-stealing thread pool, and answers from a
// rebind-aware solve cache. Runs until a client sends {"op":"shutdown"}.
//
//   tags_server --socket=/tmp/tags.sock [--threads=N] [--cache-capacity=N]
//               [--queue-depth=N] [--telemetry-out=PATH] [--metrics-prom=PATH]
//               [--store=DIR]
//
// --store=DIR makes answers durable: every fresh solve is committed to the
// store before its response is sent, and a restarted server warm-loads the
// store into its solve cache (known scenarios answer cached:true with the
// byte-identical result object).
//
// Numeric flags take a whole unsigned decimal (--threads at most
// ThreadPool::kMaxThreads, 0 for the default); anything else prints the
// usage and exits 2 before the server is built.
#include <cstdio>
#include <optional>
#include <string>

#include "core/pool.hpp"
#include "obs/numio.hpp"
#include "serve/server.hpp"

namespace {

bool flag_value(const std::string& arg, const char* name, std::string& out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--threads=N] [--cache-capacity=N]\n"
               "          [--queue-depth=N] [--telemetry-out=PATH] "
               "[--metrics-prom=PATH] [--store=DIR]\n",
               argv0);
  return 2;
}

int bad_value(const char* argv0, const std::string& arg) {
  std::fprintf(stderr, "bad value: %s\n", arg.c_str());
  return usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  tags::serve::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (flag_value(arg, "--socket", value)) {
      opts.socket_path = value;
    } else if (flag_value(arg, "--threads", value)) {
      const std::optional<unsigned> threads = tags::core::ThreadPool::parse_threads(value);
      if (!threads) return bad_value(argv[0], arg);
      opts.engine.threads = *threads;
    } else if (flag_value(arg, "--cache-capacity", value)) {
      const auto capacity = tags::numio::parse_int<std::size_t>(value);
      if (!capacity) return bad_value(argv[0], arg);
      opts.engine.cache_capacity = *capacity;
    } else if (flag_value(arg, "--queue-depth", value)) {
      const auto depth = tags::numio::parse_int<std::size_t>(value);
      if (!depth) return bad_value(argv[0], arg);
      opts.engine.queue_depth = *depth;
    } else if (flag_value(arg, "--store", value)) {
      opts.engine.store_path = value;
    } else if (flag_value(arg, "--telemetry-out", value)) {
      opts.telemetry_path = value;
    } else if (flag_value(arg, "--metrics-prom", value)) {
      opts.prometheus_path = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) return usage(argv[0]);

  tags::serve::Server server(std::move(opts));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "tags_server: %s\n", error.c_str());
    return 1;
  }
  // The smoke harness waits for this exact line before connecting.
  std::printf("tags_server listening on %s\n", server.socket_path().c_str());
  std::fflush(stdout);

  server.wait();
  std::printf("tags_server stopped\n");
  return 0;
}
