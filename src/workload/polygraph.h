// Synthetic PolyMix-style workload generator.
//
// Substitutes the Web Polygraph benchmark the paper used (Section V.1.6).
// The generated trace has the macro-structure the paper's evaluation
// depends on:
//   * Phase 1 (fill):    ~1.0M requests, almost no repetition — a cold
//                        stream of new objects;
//   * Phase 2 (request): ~1.5M requests mixing fresh objects with
//                        Zipf-distributed re-requests of a hot set
//                        (web popularity is Zipf-like, Breslau et al.);
//   * Phase 3 (repeat):  an exact replay of phase 2's request sequence
//                        ("offers requests and repeats itself in Phase 3").
// All sampling is driven by a seeded Rng, so a config generates exactly one
// trace.
#pragma once

#include <cstdint>

#include "util/rng.h"
#include "workload/trace.h"

namespace adc::workload {

struct PolygraphConfig {
  std::uint64_t fill_requests = 1'000'000;
  std::uint64_t phase2_requests = 1'500'000;
  /// Phase 3 replays the first `phase3_requests` of phase 2 (clamped).
  std::uint64_t phase3_requests = 1'490'000;

  /// Number of distinct objects eligible for popularity-driven
  /// re-requests.  Calibrated against the paper's deployment (5 proxies,
  /// 10k caching tables = 50k aggregate slots): large enough that a 5k
  /// caching table leaves hot mass uncovered while 10k+ saturates —
  /// reproducing Figure 13's caching-table dominance and ~0.7 plateau.
  std::uint64_t hot_set_size = 30'000;

  std::uint64_t seed = 42;

  /// The paper-scale configuration (~3.99M requests).
  static PolygraphConfig paper_scale() { return PolygraphConfig{}; }

  /// Uniformly scaled-down variant: request counts and hot-set size scale
  /// by `factor` (e.g. 0.1 for the default bench scale).
  static PolygraphConfig scaled(double factor);
};

/// Generates the three-phase trace described by `config`.
Trace generate_polygraph_trace(const PolygraphConfig& config);

}  // namespace adc::workload
