// Quickstart: build a 5-proxy ADC deployment, replay a small synthetic
// trace, and print what the system learned.
//
//   ./quickstart [--proxies 5] [--requests 50000] [--seed 1]
//
// This is the smallest end-to-end use of the public API:
//   1. generate a workload            (adc::workload)
//   2. describe the deployment       (adc::driver::ExperimentConfig)
//   3. run it                        (adc::driver::run_experiment)
//   4. read the metrics              (adc::sim::MetricsSummary)
#include <iostream>

#include "driver/experiment.h"
#include "driver/report.h"
#include "util/cli.h"
#include "workload/polygraph.h"

int main(int argc, char** argv) {
  using namespace adc;

  driver::ExperimentConfig config;
  std::uint64_t requests = 50'000;
  util::CliParser cli("Quickstart: ADC on a small synthetic trace.");
  cli.bind("proxies", &config.proxies, "number of cooperating proxies")
      .bind("requests", &requests, "approximate trace length")
      .bind("seed", &config.seed, "simulation seed");
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = static_cast<double>(requests) / 3'990'000.0;

  // 1. Workload: a scaled-down PolyMix-like trace (fill phase, request
  //    phase, exact repeat phase).
  const workload::Trace trace =
      workload::generate_polygraph_trace(workload::PolygraphConfig::scaled(scale));
  const auto stats = trace.stats();
  std::cout << "trace: " << stats.requests << " requests, " << stats.unique_objects
            << " unique objects, recurrence " << driver::fmt(stats.recurrence_rate, 3)
            << "\n\n";

  // 2. Deployment: paper-style ADC with tables scaled to the workload.
  config.scheme = driver::Scheme::kAdc;
  config.adc.single_table_size = std::max<std::size_t>(stats.unique_objects / 10, 64);
  config.adc.multiple_table_size = config.adc.single_table_size;
  config.adc.caching_table_size = std::max<std::size_t>(config.adc.single_table_size / 2, 32);
  config.ma_window = 1000;
  config.sample_every = 0;

  // 3. Run.
  const driver::ExperimentResult result = driver::run_experiment(config, trace);

  // 4. Report.
  driver::print_summary(std::cout, "adc", result);
  std::cout << '\n';
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"proxy", "requests", "local_hits", "cached", "table_entries"});
  for (const auto& proxy : result.proxies) {
    rows.push_back({proxy.name, std::to_string(proxy.requests_received),
                    std::to_string(proxy.local_hits), std::to_string(proxy.cached_objects),
                    std::to_string(proxy.table_entries)});
  }
  driver::print_table(std::cout, rows);

  std::cout << "\nadc internals: learned_forwards=" << result.adc_totals.forwards_learned
            << " random_forwards=" << result.adc_totals.forwards_random
            << " loops=" << result.adc_totals.loops_detected
            << " cache_admissions=" << result.adc_totals.cache_admissions << '\n';
  return 0;
}
