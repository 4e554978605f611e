// Telemetry exporters beyond the native JSON snapshot:
//
//  * Chrome Trace Event Format — the span store rendered as complete ("X")
//    events, loadable in chrome://tracing or Perfetto for a flamegraph of a
//    run (one track per instrumented thread, span attributes in args).
//  * Prometheus text exposition (version 0.0.4) — counters, gauges,
//    histograms (cumulative le-labelled buckets), and the per-span-name
//    timers, for scraping by a tags_server /stats endpoint or node
//    textfile collectors.
//
// Both are always linkable: with TAGS_ENABLE_OBS=OFF (or level 0) they emit
// empty-but-valid documents, mirroring write_telemetry_json.
#pragma once

#include <string>

namespace tags::obs {

/// The whole span store in Chrome Trace Event Format. `process_name` labels
/// the single pid's track in the viewer.
[[nodiscard]] std::string chrome_trace_json(const std::string& process_name);

/// All counters/gauges/histograms/timers in Prometheus text exposition.
/// Metric names are sanitised ([^a-zA-Z0-9_:] -> '_') and prefixed "tags_";
/// span names become `path` labels on the tags_timer_* families.
[[nodiscard]] std::string prometheus_text();

/// Write chrome_trace_json / prometheus_text to `path`, creating parent
/// directories. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::string& process_name);
bool write_prometheus(const std::string& path);

/// Write `body` to `path` via a temp file + rename in the same directory,
/// creating parent directories as needed — a reader (or a crash mid-write)
/// can never observe a partial or zero-length artifact. Shared by every
/// results/ exporter (telemetry JSON, Chrome trace, Prometheus text).
bool write_text_file_atomic(const std::string& path, const std::string& body);

}  // namespace tags::obs
