#include "obs/export.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <locale>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/numio.hpp"
#include "obs/span.hpp"

namespace tags::obs {

bool write_text_file_atomic(const std::string& path, const std::string& body) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << body;
    if (!out.flush()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

namespace {

bool write_text_file(const std::string& path, const std::string& body) {
  return write_text_file_atomic(path, body);
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string prom_name(const std::string& raw) {
  std::string out = "tags_";
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    out += (std::isalnum(u) != 0 || c == '_' || c == ':') ? c : '_';
  }
  return out;
}

/// Label values escape backslash, double quote, and newline.
std::string prom_label_value(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void prom_number(std::ostringstream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    // Prometheus expects C-locale numbers; to_chars ignores the global
    // locale where ostream's num_put would honour a comma decimal point.
    os << numio::format_g(v, 15);
  }
}

}  // namespace

std::string chrome_trace_json(const std::string& process_name) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  // Metadata: name the single process track.
  w.begin_object();
  w.field("ph", "M");
  w.field("pid", static_cast<std::int64_t>(1));
  w.field("tid", static_cast<std::int64_t>(0));
  w.field("name", "process_name");
  w.key("args");
  w.begin_object();
  w.field("name", process_name);
  w.end_object();
  w.end_object();

  for (const SpanRecord& s : span_records_export()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", "span");
    w.field("ph", "X");
    // Chrome traces use microseconds.
    w.field("ts", static_cast<double>(s.start_ns) / 1e3);
    w.field("dur", static_cast<double>(s.duration_ns()) / 1e3);
    w.field("pid", static_cast<std::int64_t>(1));
    w.field("tid", static_cast<std::int64_t>(s.thread));
    w.key("args");
    w.begin_object();
    w.field("id", static_cast<std::int64_t>(s.id));
    w.field("parent", static_cast<std::int64_t>(s.parent_id));
    w.field("self_ms", static_cast<double>(s.self_ns) / 1e6);
    for (const auto& [k, v] : s.num) w.field(k, v);
    for (const auto& [k, v] : s.str) w.field(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.field("spans_dropped", static_cast<std::int64_t>(spans_dropped()));
  w.end_object();
  return std::move(w).str();
}

std::string prometheus_text() {
  std::ostringstream os;
  os.imbue(std::locale::classic());  // integer grouping is locale-driven too

  for (const CounterSnapshot& c : counter_snapshots()) {
    const std::string name = prom_name(c.name) + "_total";
    os << "# TYPE " << name << " counter\n";
    os << name << ' ' << c.value << '\n';
  }

  for (const GaugeSnapshot& g : gauge_snapshots()) {
    const std::string name = prom_name(g.name);
    os << "# TYPE " << name << " gauge\n";
    os << name << ' ';
    prom_number(os, g.value);
    os << '\n';
  }

  for (const HistogramSnapshot& h : histogram_snapshots()) {
    const std::string name = prom_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      os << name << "_bucket{le=\"";
      prom_number(os, h.bounds[i]);
      os << "\"} " << cumulative << '\n';
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << '\n';
    os << name << "_sum ";
    prom_number(os, h.sum);
    os << '\n';
    os << name << "_count " << h.count << '\n';
  }

  // Per-span-name timers as labelled families: one series per name.
  // Seconds, per Prometheus convention.
  const auto timers = span_stats();
  if (!timers.empty()) {
    os << "# TYPE tags_timer_seconds_total counter\n";
    for (const auto& [name, stat] : timers) {
      os << "tags_timer_seconds_total{path=\"" << prom_label_value(name) << "\"} "
         << static_cast<double>(stat.total_ns) / 1e9 << '\n';
    }
    os << "# TYPE tags_timer_self_seconds_total counter\n";
    for (const auto& [name, stat] : timers) {
      os << "tags_timer_self_seconds_total{path=\"" << prom_label_value(name)
         << "\"} " << static_cast<double>(stat.self_ns) / 1e9 << '\n';
    }
    os << "# TYPE tags_timer_count_total counter\n";
    for (const auto& [name, stat] : timers) {
      os << "tags_timer_count_total{path=\"" << prom_label_value(name) << "\"} "
         << stat.count << '\n';
    }
  }
  return os.str();
}

bool write_chrome_trace(const std::string& path, const std::string& process_name) {
  return write_text_file(path, chrome_trace_json(process_name) + "\n");
}

bool write_prometheus(const std::string& path) {
  return write_text_file(path, prometheus_text());
}

}  // namespace tags::obs
