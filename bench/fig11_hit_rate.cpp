// Figure 11 — Hit rate, ADC vs hashing (CARP), over the three-phase trace.
//
// Prints the two moving-average hit-rate series (5000-request window at
// full scale) the paper plots, then the end-of-run comparison row.  The
// paper's shape: both algorithms near zero through the fill phase; in
// request phase I the hashing baseline rises first while ADC is still
// learning; after the learning phase ADC matches and outperforms hashing
// by a small margin.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace adc;

  // Serial by default: the two runs in parallel double the peak memory at
  // paper scale.
  int workers = 1;
  std::string json_path;
  util::CliParser cli("Figure 11: hit rate, ADC vs hashing (CARP).");
  cli.bind("workers", &workers, bench::kWorkersHelp)
      .bind("json", &json_path, bench::kJsonHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Figure 11: hit rate, ADC vs hashing", scale, trace);

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

  const auto tail_rate = [](const driver::ExperimentResult& r) {
    // Steady-state hit rate: the mean of the last quarter of the series
    // (request phase II), where the paper reads off its comparison.
    if (r.series.empty()) return 0.0;
    const std::size_t start = r.series.size() - r.series.size() / 4;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = start; i < r.series.size(); ++i, ++n) sum += r.series[i].hit_rate;
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  std::cout << "\nsteady_state_hit_rate adc=" << driver::fmt(tail_rate(adc_result))
            << " carp=" << driver::fmt(tail_rate(carp_result)) << '\n';
  if (!driver::write_json_rows(json_path, {bench::summary_json_row("adc", adc_result),
                                           bench::summary_json_row("carp", carp_result)})) {
    return 1;
  }
  return 0;
}
