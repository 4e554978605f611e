// Exact (CTMC-based) timeout optimisation. The paper optimises the integer
// timer rate t for minimum queue length (Figure 8) and notes that queue
// length, response time and throughput peak at slightly different t
// (Figures 9/10) — hence the Objective enum.
#pragma once

#include <cstddef>

#include "models/metrics.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"

namespace tags::approx {

enum class Objective {
  kMinQueueLength,   ///< minimise E[N1 + N2]
  kMinResponseTime,  ///< minimise W
  kMaxThroughput,    ///< maximise successful completions
};

struct ExactOptimum {
  double t = 0.0;
  models::Metrics metrics;
  int solves = 0;
};

/// Scan integer t in [t_lo, t_hi] (warm-starting each solve from the
/// previous stationary vector) and return the best integer rate — the
/// paper's Figure 8 procedure. The trailing std::size_t is read by
/// nothing: it sized the batched multi-point solve, which is gone, and
/// perfbench/harness.cpp still passes it, so it stays until the next
/// change to the benchmark deletes it there and here.
[[nodiscard]] ExactOptimum optimise_tags_t_integer(models::TagsParams p, Objective obj,
                                                   unsigned t_lo = 10,
                                                   unsigned t_hi = 120,
                                                   std::size_t = 1);

[[nodiscard]] ExactOptimum optimise_tags_h2_t_integer(models::TagsH2Params p,
                                                      Objective obj, unsigned t_lo = 2,
                                                      unsigned t_hi = 120);

/// Two-phase integer scan: stride over [t_lo, t_hi], then refine every
/// integer within +-(stride-1) of the coarse winner. ~stride-fold fewer
/// solves for unimodal objectives.
[[nodiscard]] ExactOptimum optimise_tags_h2_t_coarse(const models::TagsH2Params& p,
                                                     Objective obj, unsigned t_lo,
                                                     unsigned t_hi, unsigned stride);

/// Continuous refinement: golden-section around an initial guess.
[[nodiscard]] ExactOptimum optimise_tags_t(models::TagsParams p, Objective obj,
                                           double t_lo, double t_hi);

}  // namespace tags::approx
