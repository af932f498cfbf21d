// Extension EXT-VAR — seed sensitivity of the headline comparison.
//
// Figure 11's "minimal margin" between ADC and hashing only means
// something if it exceeds the run-to-run noise.  This bench replays the
// same trace under 8 simulation seeds (entry-proxy choices and random
// forwarding differ; the workload stays fixed) and reports mean ± sd for
// both schemes.
#include <iostream>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace adc;

  int workers = 0;
  util::CliParser cli("Extension: seed variance of the ADC vs CARP comparison.");
  cli.bind("workers", &workers, bench::kWorkersHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;
  workers = driver::resolve_workers(workers);

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: seed variance of the ADC vs CARP comparison", scale,
                          trace);
  std::cout << "# workers=" << workers << '\n';

  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "runs", "hit_rate_mean", "hit_rate_sd", "hit_rate_ci95",
                  "hops_mean", "hops_sd", "hops_ci95"});
  for (const auto scheme : {driver::Scheme::kAdc, driver::Scheme::kCarp}) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    config.sample_every = 0;  // aggregates only; no series needed
    const driver::ReplicationResult summary =
        driver::run_replicated(config, trace, seeds, workers);
    rows.push_back({std::string(driver::scheme_name(scheme)), std::to_string(summary.runs),
                    driver::fmt(summary.hit_rate.mean), driver::fmt(summary.hit_rate.stddev),
                    driver::fmt(summary.hit_rate.ci95), driver::fmt(summary.avg_hops.mean, 3),
                    driver::fmt(summary.avg_hops.stddev, 4),
                    driver::fmt(summary.avg_hops.ci95, 4)});
  }
  driver::print_table(std::cout, rows);
  return 0;
}
