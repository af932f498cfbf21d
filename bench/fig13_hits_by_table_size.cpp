// Figure 13 — Hit rate vs table size: each of the three ADC tables swept
// from 5k to 30k (scaled) while the other two stay at the defaults
// (single=20k, multiple=20k, caching=10k).
//
// Paper's shape: the caching-table size dominates the hit rate (more cache
// -> more hits, saturating above 10k); a 5k single-table already captures
// enough of the request flow; a multiple-table below 10k hurts, above 10k
// adds little.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace adc;

  int workers = 0;
  util::CliParser cli("Figure 13: hit rate by table size.");
  cli.bind("workers", &workers, bench::kWorkersHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;
  workers = driver::resolve_workers(workers);

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Figure 13: hit rate by table size", scale, trace);
  std::cout << "# workers=" << workers << '\n';

  const driver::ExperimentConfig base = bench::paper_config(scale);
  const auto sizes = driver::paper_sweep_sizes(scale);
  const auto points = driver::run_table_sweep(
      base, trace,
      {driver::SweptTable::kCaching, driver::SweptTable::kMultiple,
       driver::SweptTable::kSingle},
      sizes, workers);

  driver::print_sweep_csv(std::cout, points);
  return 0;
}
