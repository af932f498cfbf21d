// Figure 15 — Processing time vs table size (google-benchmark wall time).
//
// Runs the same sweep as Figures 13/14 in the paper's *faithful* table
// mode: the single-table is a linked list searched element-wise and the
// ordered tables are contiguous arrays maintained by binary search — the
// structures whose cost the paper measured.  Paper's shape: growing the
// single and multiple tables slows the run down; growing the caching table
// has no significant impact.  (Our indexed mode removes the growth — see
// bench/ablation_table_impl.)
//
// Each (table, size) point is one google-benchmark benchmark so the wall
// times come with benchmark's reporting; iterations are pinned to 1
// because a full trace replay is already a long, deterministic run.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"

namespace {

using namespace adc;

// The trace is shared by all registered benchmarks (generated once).
std::unique_ptr<workload::Trace> g_trace;
double g_scale = 0.1;
std::string g_usage;

void run_point(benchmark::State& state, driver::SweptTable table, std::size_t size) {
  driver::ExperimentConfig config = bench::paper_config(g_scale);
  config.adc.table_impl = cache::TableImpl::kFaithful;
  config.sample_every = 0;  // no series needed; keep the loop lean
  switch (table) {
    case driver::SweptTable::kCaching:
      config.adc.caching_table_size = size;
      break;
    case driver::SweptTable::kMultiple:
      config.adc.multiple_table_size = size;
      break;
    case driver::SweptTable::kSingle:
      config.adc.single_table_size = size;
      break;
  }
  for (auto _ : state) {
    const driver::ExperimentResult result = driver::run_experiment(config, *g_trace);
    state.counters["hit_rate"] = result.summary.hit_rate();
    state.counters["avg_hops"] = result.summary.avg_hops();
    state.counters["wall_seconds"] = result.wall_seconds;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --workers defaults to 1 here, unlike fig13/14: this bench *measures*
  // per-point wall time, and concurrent runs contend for cores, inflating
  // each other's timings.  With --workers > 1 the sweep runs through the
  // parallel engine instead of google-benchmark, and the reported
  // wall_seconds column (per-run simulation-loop time) is what Figure 15
  // plots — useful for a quick look at the shape, not for clean timings.
  int workers = 1;
  util::CliParser cli("Figure 15: processing time by table size (faithful structures).");
  cli.bind("workers", &workers, bench::kWorkersHelp);
  // benchmark::Initialize consumes the --benchmark_* flags and answers
  // --help itself, leading with our usage; the rest of argv is ours.
  g_usage = cli.help_text();
  benchmark::Initialize(&argc, argv, [] {
    std::cout << g_usage << '\n';
    benchmark::PrintDefaultHelp();
  });
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;
  workers = driver::resolve_workers(workers);
  g_scale = bench::bench_scale();

  g_trace = std::make_unique<workload::Trace>(bench::paper_trace(g_scale));
  bench::print_run_banner("Figure 15: processing time by table size (faithful structures)",
                          g_scale, *g_trace);

  const auto sizes = driver::paper_sweep_sizes(g_scale);
  const std::vector<driver::SweptTable> tables = {
      driver::SweptTable::kCaching, driver::SweptTable::kMultiple, driver::SweptTable::kSingle};

  if (workers > 1) {
    std::cout << "# workers=" << workers << " (parallel mode; timings are contended)\n";
    driver::ExperimentConfig base = bench::paper_config(g_scale);
    base.adc.table_impl = cache::TableImpl::kFaithful;
    base.sample_every = 0;
    const auto points = driver::run_table_sweep(base, *g_trace, tables, sizes, workers);
    driver::print_sweep_csv(std::cout, points);
    return 0;
  }

  for (const auto table : tables) {
    for (const std::size_t size : sizes) {
      const std::string name = std::string("fig15/") +
                               std::string(driver::swept_table_name(table)) + "/" +
                               std::to_string(size);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [table, size](benchmark::State& state) {
                                     run_point(state, table, size);
                                   })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
