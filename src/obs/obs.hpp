// Umbrella header for the observability layer: level gating, the metrics
// registry, causal spans (the one instrumentation mechanism) and the
// exporters. Instrumented call sites include this one header.
#pragma once

#include "obs/export.hpp"   // IWYU pragma: export
#include "obs/level.hpp"    // IWYU pragma: export
#include "obs/metrics.hpp"  // IWYU pragma: export
#include "obs/span.hpp"     // IWYU pragma: export
