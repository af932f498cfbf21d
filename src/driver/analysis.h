// Post-run analysis helpers: per-phase breakdowns, load-balance measures,
// and cache-content duplication — the quantities behind the paper's
// qualitative statements ("balance the user request load", "reduce the
// number of copies", "the diagram shows clearly the three phases").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "workload/trace.h"

namespace adc::driver {

struct PhaseMetrics {
  std::string name;          // "fill", "phase-I", "phase-II"
  std::uint64_t begin = 0;   // request-count window [begin, end)
  std::uint64_t end = 0;
  double hit_rate = 0.0;     // mean of the moving-average series inside the window
  double hops = 0.0;
  double latency = 0.0;
  std::size_t samples = 0;   // series points the means are built from
};

/// Splits the recorded series along the trace's phase boundaries.  Phases
/// without any sample report zeros with samples == 0.
std::vector<PhaseMetrics> phase_breakdown(const ExperimentResult& result,
                                          const workload::TracePhases& phases,
                                          std::uint64_t total_requests);

struct LoadStats {
  std::uint64_t total = 0;     // requests received over all proxies
  std::uint64_t peak = 0;      // busiest proxy
  double peak_share = 0.0;     // peak / total (1/n is perfectly even)
  double cv = 0.0;             // coefficient of variation of per-proxy load
};

/// Request-load distribution over the proxies.
LoadStats load_balance(const std::vector<ProxySnapshot>& proxies);

struct DuplicationStats {
  std::uint64_t total_cached = 0;     // sum of per-proxy cache sizes
  std::uint64_t distinct_cached = 0;  // union of cached object ids
  /// total / distinct: 1.0 = perfect partitioning (hashing), higher means
  /// replicated content (ADC's hot-object copies).
  double factor = 0.0;
};

/// Requires the run to have been executed with
/// ExperimentConfig::collect_cache_contents = true.
DuplicationStats duplication(const std::vector<ProxySnapshot>& proxies);

}  // namespace adc::driver
