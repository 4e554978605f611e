// Umbrella header for the observability layer: level gating, metrics
// registry, causal spans (the one timing mechanism), and trace sinks.
// Instrumented call sites include this one header; everything compiles to
// no-ops when the project is built with TAGS_ENABLE_OBS=OFF.
#pragma once

#include "obs/export.hpp"   // IWYU pragma: export
#include "obs/level.hpp"    // IWYU pragma: export
#include "obs/metrics.hpp"  // IWYU pragma: export
#include "obs/span.hpp"     // IWYU pragma: export
#include "obs/trace.hpp"    // IWYU pragma: export
