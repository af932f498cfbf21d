// Extension EXT-NP — "Number of proxies" (paper Section V.1.2): one of the
// paper's five experiment parameters, listed but not plotted (their
// hardware capped the distributed runs at 8 hosts; the simulator has no
// such cap).
//
// Sweeps the proxy count for ADC and CARP with *fixed per-proxy* table
// sizes, so adding proxies adds aggregate capacity — the deployment
// question an operator actually faces.  Expected shapes: hit rate grows
// with aggregate cache until the hot set is covered; ADC's random-walk
// hops grow with the membership while CARP's stay constant.
#include <iostream>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace adc;

  int workers = 0;
  util::CliParser cli("Extension: number of proxies (1..12).");
  cli.bind("workers", &workers, bench::kWorkersHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;
  workers = driver::resolve_workers(workers);

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: number of proxies (1..12)", scale, trace);
  std::cout << "# workers=" << workers << '\n';

  // Interleave ADC and CARP configs per proxy count and fan the whole grid
  // out at once: results come back in submission order, so row i reads
  // from slots 2i (ADC) and 2i + 1 (CARP).
  const std::vector<int> proxy_counts = {1, 2, 3, 5, 8, 12};
  std::vector<driver::ExperimentConfig> configs;
  for (const int proxies : proxy_counts) {
    driver::ExperimentConfig adc_config = bench::paper_config(scale);
    adc_config.proxies = proxies;
    adc_config.sample_every = 0;
    driver::ExperimentConfig carp_config = adc_config;
    carp_config.scheme = driver::Scheme::kCarp;
    configs.push_back(adc_config);
    configs.push_back(carp_config);
  }
  const auto results = driver::run_parallel(configs, trace, workers);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"proxies", "adc_hit", "carp_hit", "adc_hops", "carp_hops",
                  "adc_origin", "carp_origin"});
  for (std::size_t i = 0; i < proxy_counts.size(); ++i) {
    const auto& adc_result = results[2 * i];
    const auto& carp_result = results[2 * i + 1];
    rows.push_back({std::to_string(proxy_counts[i]),
                    driver::fmt(adc_result.summary.hit_rate(), 3),
                    driver::fmt(carp_result.summary.hit_rate(), 3),
                    driver::fmt(adc_result.summary.avg_hops(), 2),
                    driver::fmt(carp_result.summary.avg_hops(), 2),
                    std::to_string(adc_result.origin_served),
                    std::to_string(carp_result.origin_served)});
  }
  driver::print_table(std::cout, rows);
  return 0;
}
