// Figure 14 — Average hops vs table size, same sweep as Figure 13.
//
// Paper's shape: all three curves are mildly declining and the total
// variation stays within about a quarter hop of the ~7-hop average —
// larger tables help requests resolve slightly earlier, with the single
// table showing the most visible decline.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace adc;

  int workers = 0;
  util::CliParser cli("Figure 14: hops by table size.");
  cli.bind("workers", &workers, bench::kWorkersHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;
  workers = driver::resolve_workers(workers);

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Figure 14: hops by table size", scale, trace);
  std::cout << "# workers=" << workers << '\n';

  const driver::ExperimentConfig base = bench::paper_config(scale);
  const auto sizes = driver::paper_sweep_sizes(scale);
  const auto points = driver::run_table_sweep(
      base, trace,
      {driver::SweptTable::kCaching, driver::SweptTable::kMultiple,
       driver::SweptTable::kSingle},
      sizes, workers);

  driver::print_sweep_csv(std::cout, points);

  double min_hops = 1e300;
  double max_hops = 0.0;
  for (const auto& p : points) {
    min_hops = std::min(min_hops, p.avg_hops);
    max_hops = std::max(max_hops, p.avg_hops);
  }
  std::cout << "\nhops_range min=" << driver::fmt(min_hops, 3)
            << " max=" << driver::fmt(max_hops, 3)
            << " spread=" << driver::fmt(max_hops - min_hops, 3) << '\n';
  return 0;
}
