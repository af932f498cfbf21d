// proxy_sim — the all-in-one command-line simulator.
//
// Everything the library can do behind one binary: pick a scheme, a
// workload model (or a trace file), table sizes, faults, object churn,
// and get the summary, the per-phase breakdown, the per-proxy table and
// optionally the full moving-average series as CSV.
//
//   ./proxy_sim --scheme adc --model polymix --scale 0.02
//   ./proxy_sim --scheme carp --model wpb --requests 200000 --series
//   ./proxy_sim --scheme adc --trace /tmp/t.bin --single 2000 --caching 500
//   ./proxy_sim --scheme adc --fault-at 50000 --fault-proxy 1
//   ./proxy_sim --scheme adc --update-interval 500000   # staleness accounting
#include <iostream>

#include "driver/analysis.h"
#include "driver/experiment.h"
#include "driver/report.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "workload/polygraph.h"
#include "workload/trace.h"
#include "workload/wpb.h"

int main(int argc, char** argv) {
  using namespace adc;

  driver::ExperimentConfig config;
  std::string model = "polymix";
  std::string trace_path;
  double scale = 0.02;
  std::uint64_t wpb_requests = 100'000;
  // 0 = size the table from the workload (see below).
  std::size_t single = 0;
  std::size_t multiple = 0;
  std::size_t caching = 0;
  bool series = false;
  bool faithful = false;

  util::CliParser cli("All-in-one distributed proxy-cache simulator.");
  cli.choice("scheme", &config.scheme, driver::scheme_names(), "distributed-caching scheme")
      .choice("model", &model, {{"polymix", "polymix"}, {"wpb", "wpb"}},
              "workload when no --trace")
      .bind("trace", &trace_path, "replay a saved trace file (.txt or binary)")
      .bind("scale", &scale, "polymix: scale vs the paper's 3.99M requests")
      .bind("requests", &wpb_requests, "wpb: trace length")
      .bind("proxies", &config.proxies, "number of cooperating proxies")
      .bind("single", &single, "single-table entries (0 = scale with workload)")
      .bind("multiple", &multiple, "multiple-table entries (0 = scale with workload)")
      .bind("caching", &caching, "caching-table entries (0 = scale with workload)")
      .bind("max-forwards", &config.adc.max_forwards, "ADC search cutoff")
      .bind("seed", &config.seed, "simulation seed")
      .bind("concurrency", &config.concurrency, "client requests kept in flight",
            {1, 1'000'000})
      .bind("fault-at", &config.fault.at_completed,
            "flush a proxy after N completed requests (0 = off)")
      .bind("fault-proxy", &config.fault.proxy_index, "index of the proxy to flush")
      .bind("update-interval", &config.object_update_interval,
            "origin object-update interval (0 = immutable objects)", {0, kSimTimeMax})
      .bind("series", &series, "print the moving-average series as CSV")
      .bind("faithful", &faithful, "use the paper's table data structures");
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  // --- Workload -----------------------------------------------------------
  workload::Trace trace;
  if (!trace_path.empty()) {
    std::string load_error;
    const bool ok = util::ends_with(trace_path, ".txt")
                        ? workload::Trace::load_text(trace_path, &trace, &load_error)
                        : workload::Trace::load_binary(trace_path, &trace, &load_error);
    if (!ok) {
      std::cerr << "cannot load " << trace_path << ": " << load_error << '\n';
      return 1;
    }
  } else if (model == "wpb") {
    workload::WpbConfig wpb;
    wpb.requests = wpb_requests;
    wpb.seed = config.seed;
    trace = workload::generate_wpb_trace(wpb);
  } else {
    trace = workload::generate_polygraph_trace(workload::PolygraphConfig::scaled(scale));
  }
  if (trace.empty()) {
    std::cerr << "empty workload\n";
    return 1;
  }
  const auto trace_stats = trace.stats();

  // --- Deployment ----------------------------------------------------------
  const auto default_table = std::max<std::size_t>(trace_stats.unique_objects / 10, 64);
  config.adc.single_table_size = single != 0 ? single : default_table;
  config.adc.multiple_table_size = multiple != 0 ? multiple : default_table;
  config.adc.caching_table_size =
      caching != 0 ? caching : std::max<std::size_t>(default_table / 2, 32);
  if (faithful) config.adc.table_impl = cache::TableImpl::kFaithful;
  config.ma_window = std::max<std::size_t>(trace.size() / 100, 100);
  config.sample_every = config.ma_window;
  if (const std::string invalid = config.validate(); !invalid.empty()) {
    std::cerr << "invalid configuration: " << invalid << '\n';
    return 1;
  }

  // --- Run ------------------------------------------------------------------
  std::cout << "workload: " << util::with_thousands(trace_stats.requests) << " requests, "
            << util::with_thousands(trace_stats.unique_objects) << " unique, recurrence "
            << driver::fmt(trace_stats.recurrence_rate, 3) << "\n"
            << "tables: single=" << config.adc.single_table_size
            << " multiple=" << config.adc.multiple_table_size
            << " caching=" << config.adc.caching_table_size << "\n\n";

  const driver::ExperimentResult result = driver::run_experiment(config, trace);

  if (series) {
    driver::print_series_csv(std::cout, driver::scheme_name(config.scheme), result.series);
    return 0;
  }

  driver::print_summary(std::cout, driver::scheme_name(config.scheme), result);
  if (config.object_update_interval > 0) {
    std::cout << "stale_hits=" << result.summary.stale_hits
              << " stale_rate=" << driver::fmt(result.summary.stale_rate()) << '\n';
  }
  std::cout << '\n';

  const auto phases = driver::phase_breakdown(result, trace.phases(), trace.size());
  std::vector<std::vector<std::string>> phase_rows;
  phase_rows.push_back({"phase", "requests", "hit_rate_ma", "hops_ma", "latency_ma"});
  for (const auto& phase : phases) {
    if (phase.samples == 0) continue;
    phase_rows.push_back({phase.name, std::to_string(phase.end - phase.begin),
                          driver::fmt(phase.hit_rate, 3), driver::fmt(phase.hops, 2),
                          driver::fmt(phase.latency, 2)});
  }
  driver::print_table(std::cout, phase_rows);
  std::cout << '\n';

  std::vector<std::vector<std::string>> proxy_rows;
  proxy_rows.push_back({"proxy", "requests", "local_hits", "cached"});
  for (const auto& proxy : result.proxies) {
    proxy_rows.push_back({proxy.name, std::to_string(proxy.requests_received),
                          std::to_string(proxy.local_hits),
                          std::to_string(proxy.cached_objects)});
  }
  driver::print_table(std::cout, proxy_rows);

  const auto load = driver::load_balance(result.proxies);
  std::cout << "\nload: peak_share=" << driver::fmt(load.peak_share, 3)
            << " cv=" << driver::fmt(load.cv, 3) << '\n';
  return 0;
}
