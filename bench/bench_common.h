// Shared setup for the figure-reproduction bench binaries.
//
// Every bench runs the paper's deployment (5 proxies; single=20k,
// multiple=20k, caching=10k; ~3.99M-request PolyMix-like trace) scaled by
// ADC_BENCH_SCALE (default 0.1 so the whole suite finishes in minutes;
// set ADC_BENCH_SCALE=1.0 for the paper-scale run).  Table sizes and the
// workload scale together, preserving the cache-to-working-set ratios the
// paper's results depend on.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "driver/experiment.h"
#include "driver/parallel.h"
#include "driver/report.h"
#include "driver/sweep.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "workload/polygraph.h"

namespace adc::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("ADC_BENCH_SCALE")) {
    if (const auto parsed = util::parse_double(env); parsed && *parsed > 0.0) {
      return *parsed;
    }
    std::cerr << "ignoring unparsable ADC_BENCH_SCALE='" << env << "'\n";
  }
  return 0.1;
}

/// Help text of the flags several benches bind (see util::CliParser).
/// --workers 0 means hardware concurrency and 1 the serial path; any count
/// produces bit-identical metrics (modulo wall_seconds), which
/// tests/driver/parallel_test.cpp enforces.
inline constexpr const char* kWorkersHelp =
    "parallel simulation runs (0 = hardware concurrency, 1 = serial)";
inline constexpr const char* kJsonHelp =
    "also write the result grid as a JSON array of flat objects to this path";

inline std::size_t scaled_size(std::size_t paper_value, double scale) {
  const auto scaled = static_cast<std::size_t>(static_cast<double>(paper_value) * scale);
  return scaled == 0 ? 1 : scaled;
}

/// The paper's default experiment (Section V.2) at the given scale.
inline driver::ExperimentConfig paper_config(double scale) {
  driver::ExperimentConfig config;
  config.scheme = driver::Scheme::kAdc;
  config.proxies = 5;
  config.adc.single_table_size = scaled_size(20000, scale);
  config.adc.multiple_table_size = scaled_size(20000, scale);
  config.adc.caching_table_size = scaled_size(10000, scale);
  config.seed = 1;
  // The moving-average window follows the paper's 5000-request window at
  // full scale and shrinks with the workload.
  config.ma_window = scaled_size(5000, scale);
  config.sample_every = scaled_size(5000, scale);
  return config;
}

inline workload::Trace paper_trace(double scale) {
  const auto config = workload::PolygraphConfig::scaled(scale);
  return workload::generate_polygraph_trace(config);
}

/// One experiment summary as a flat JSON row (for --json artifacts): the
/// same metrics print_summary writes, machine-readable.
inline std::vector<driver::JsonField> summary_json_row(std::string_view label,
                                                       const driver::ExperimentResult& result) {
  return {driver::json_str("label", label),
          driver::json_num("requests", result.summary.completed),
          driver::json_num("hit_rate", result.summary.hit_rate(), 4),
          driver::json_num("avg_hops", result.summary.avg_hops(), 4),
          driver::json_num("avg_latency", result.summary.avg_latency(), 4),
          driver::json_num("latency_p99", result.latency_p99, 2),
          driver::json_num("latency_p999", result.latency_p999, 2),
          driver::json_num("fairness", result.summary.request_fairness(), 4),
          driver::json_num("origin_fetches", result.origin_served)};
}

inline void print_run_banner(const char* figure, double scale,
                             const workload::Trace& trace) {
  const auto stats = trace.stats();
  std::cout << "# " << figure << "  (scale=" << scale << ", requests="
            << util::with_thousands(stats.requests) << ", unique="
            << util::with_thousands(stats.unique_objects) << ", recurrence="
            << driver::fmt(stats.recurrence_rate, 3) << ")\n";
}

}  // namespace adc::bench
