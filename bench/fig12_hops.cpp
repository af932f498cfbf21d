// Figure 12 — Average hops per request, ADC vs hashing (CARP).
//
// A hop is one message transfer (client-proxy, proxy-proxy, proxy-server,
// and each backwarding transfer).  Paper's shape: ADC needs on average
// about two more hops than the hashing baseline — the price of its random
// search — with ADC around 7 hops in its configuration.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace adc;

  // Serial by default: the two runs in parallel double the peak memory at
  // paper scale.
  int workers = 1;
  std::string json_path;
  util::CliParser cli("Figure 12: average hops, ADC vs hashing (CARP).");
  cli.bind("workers", &workers, bench::kWorkersHelp)
      .bind("json", &json_path, bench::kJsonHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Figure 12: hops, ADC vs hashing", scale, trace);

  driver::ExperimentConfig adc_config = bench::paper_config(scale);
  driver::ExperimentConfig carp_config = adc_config;
  carp_config.scheme = driver::Scheme::kCarp;

  const auto results = driver::run_parallel({adc_config, carp_config}, trace, workers);
  const driver::ExperimentResult& adc_result = results[0];
  const driver::ExperimentResult& carp_result = results[1];

  driver::print_series_csv(std::cout, "adc", adc_result.series);
  driver::print_series_csv(std::cout, "carp", carp_result.series);

  std::cout << '\n';
  driver::print_summary(std::cout, "adc ", adc_result);
  driver::print_summary(std::cout, "carp", carp_result);
  std::cout << "\navg_hops adc=" << driver::fmt(adc_result.summary.avg_hops(), 3)
            << " carp=" << driver::fmt(carp_result.summary.avg_hops(), 3)
            << " delta=" << driver::fmt(adc_result.summary.avg_hops() -
                                            carp_result.summary.avg_hops(), 3)
            << "\nhop_distribution adc p50=" << adc_result.hops_p50
            << " p95=" << adc_result.hops_p95 << " max=" << adc_result.hops_max
            << " | carp p50=" << carp_result.hops_p50 << " p95=" << carp_result.hops_p95
            << " max=" << carp_result.hops_max << '\n';
  if (!driver::write_json_rows(json_path, {bench::summary_json_row("adc", adc_result),
                                           bench::summary_json_row("carp", carp_result)})) {
    return 1;
  }
  return 0;
}
