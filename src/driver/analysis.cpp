#include "driver/analysis.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace adc::driver {

std::vector<PhaseMetrics> phase_breakdown(const ExperimentResult& result,
                                          const workload::TracePhases& phases,
                                          std::uint64_t total_requests) {
  std::vector<PhaseMetrics> out;
  const struct {
    const char* name;
    std::uint64_t begin;
    std::uint64_t end;
  } windows[] = {
      {"fill", 0, phases.fill_end},
      {"phase-I", phases.fill_end, phases.phase2_end},
      {"phase-II", phases.phase2_end, total_requests},
  };
  for (const auto& window : windows) {
    PhaseMetrics metrics;
    metrics.name = window.name;
    metrics.begin = window.begin;
    metrics.end = window.end;
    double hit_sum = 0.0;
    double hops_sum = 0.0;
    double latency_sum = 0.0;
    for (const auto& point : result.series) {
      if (point.requests > window.begin && point.requests <= window.end) {
        hit_sum += point.hit_rate;
        hops_sum += point.hops;
        latency_sum += point.latency;
        ++metrics.samples;
      }
    }
    if (metrics.samples > 0) {
      const auto n = static_cast<double>(metrics.samples);
      metrics.hit_rate = hit_sum / n;
      metrics.hops = hops_sum / n;
      metrics.latency = latency_sum / n;
    }
    out.push_back(std::move(metrics));
  }
  return out;
}

LoadStats load_balance(const std::vector<ProxySnapshot>& proxies) {
  LoadStats stats;
  if (proxies.empty()) return stats;
  double sum = 0.0;
  for (const auto& proxy : proxies) {
    stats.total += proxy.requests_received;
    stats.peak = std::max(stats.peak, proxy.requests_received);
    sum += static_cast<double>(proxy.requests_received);
  }
  if (stats.total == 0) return stats;
  stats.peak_share = static_cast<double>(stats.peak) / static_cast<double>(stats.total);
  const double mean = sum / static_cast<double>(proxies.size());
  double variance = 0.0;
  for (const auto& proxy : proxies) {
    const double d = static_cast<double>(proxy.requests_received) - mean;
    variance += d * d;
  }
  variance /= static_cast<double>(proxies.size());
  stats.cv = mean == 0.0 ? 0.0 : std::sqrt(variance) / mean;
  return stats;
}

DuplicationStats duplication(const std::vector<ProxySnapshot>& proxies) {
  DuplicationStats stats;
  std::unordered_set<ObjectId> distinct;
  for (const auto& proxy : proxies) {
    stats.total_cached += proxy.cached_ids.size();
    distinct.insert(proxy.cached_ids.begin(), proxy.cached_ids.end());
  }
  stats.distinct_cached = distinct.size();
  stats.factor = stats.distinct_cached == 0
                     ? 0.0
                     : static_cast<double>(stats.total_cached) /
                           static_cast<double>(stats.distinct_cached);
  return stats;
}

}  // namespace adc::driver
