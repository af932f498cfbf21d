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

  util::CliParser cli("All-in-one distributed proxy-cache simulator.");
  cli.option("scheme", "adc",
             "adc | carp | consistent | rendezvous | hierarchical | coordinator | soap")
      .option("model", "polymix", "workload when no --trace: polymix | wpb")
      .option("trace", "", "replay a saved trace file (.txt or binary)")
      .option("scale", "0.02", "polymix: scale vs the paper's 3.99M requests")
      .option("requests", "100000", "wpb: trace length")
      .option("proxies", "5", "number of cooperating proxies")
      .option("single", "0", "single-table entries (0 = scale with workload)")
      .option("multiple", "0", "multiple-table entries (0 = scale with workload)")
      .option("caching", "0", "caching-table entries (0 = scale with workload)")
      .option("max-forwards", "8", "ADC search cutoff")
      .option("seed", "1", "simulation seed")
      .option("concurrency", "1", "client requests kept in flight")
      .option("fault-at", "0", "flush a proxy after N completed requests (0 = off)")
      .option("fault-proxy", "0", "index of the proxy to flush")
      .option("update-interval", "0", "origin object-update interval (0 = immutable objects)")
      .option("series", "", "print the moving-average series as CSV", /*is_flag=*/true)
      .option("faithful", "", "use the paper's table data structures", /*is_flag=*/true);
  std::string error;
  if (!cli.parse(argc, argv, &error)) {
    std::cerr << error << '\n' << cli.help_text();
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  const auto& options = cli.config();

  const auto scheme = driver::parse_scheme(options.get_string("scheme", "adc"));
  if (!scheme) {
    std::cerr << "unknown scheme '" << options.get_string("scheme", "") << "'\n";
    return 1;
  }

  // --- Workload -----------------------------------------------------------
  workload::Trace trace;
  const std::string trace_path = options.get_string("trace", "");
  if (!trace_path.empty()) {
    std::string load_error;
    const bool ok = util::ends_with(trace_path, ".txt")
                        ? workload::Trace::load_text(trace_path, &trace, &load_error)
                        : workload::Trace::load_binary(trace_path, &trace, &load_error);
    if (!ok) {
      std::cerr << "cannot load " << trace_path << ": " << load_error << '\n';
      return 1;
    }
  } else if (options.get_string("model", "polymix") == "wpb") {
    workload::WpbConfig wpb;
    wpb.requests = options.get_size("requests", 100000);
    wpb.seed = options.get_size("seed", 1);
    trace = workload::generate_wpb_trace(wpb);
  } else {
    auto polymix = workload::PolygraphConfig::scaled(options.get_double("scale", 0.02));
    trace = workload::generate_polygraph_trace(polymix);
  }
  if (trace.empty()) {
    std::cerr << "empty workload\n";
    return 1;
  }
  const auto trace_stats = trace.stats();

  // --- Deployment ----------------------------------------------------------
  driver::ExperimentConfig config;
  config.scheme = *scheme;
  config.proxies = static_cast<int>(options.get_int("proxies", 5));
  const auto default_table = std::max<std::size_t>(trace_stats.unique_objects / 10, 64);
  const auto table_or = [&](const char* key, std::size_t fallback) {
    const auto v = options.get_size(key, 0);
    return v != 0 ? static_cast<std::size_t>(v) : fallback;
  };
  config.adc.single_table_size = table_or("single", default_table);
  config.adc.multiple_table_size = table_or("multiple", default_table);
  config.adc.caching_table_size = table_or("caching", std::max<std::size_t>(default_table / 2, 32));
  config.adc.max_forwards = static_cast<int>(options.get_int("max-forwards", 8));
  if (options.get_bool("faithful", false)) {
    config.adc.table_impl = cache::TableImpl::kFaithful;
  }
  config.seed = options.get_size("seed", 1);
  config.concurrency = static_cast<int>(options.get_int("concurrency", 1));
  config.ma_window = std::max<std::size_t>(trace.size() / 100, 100);
  config.sample_every = config.ma_window;
  config.fault.at_completed = options.get_size("fault-at", 0);
  config.fault.proxy_index = static_cast<int>(options.get_int("fault-proxy", 0));
  config.object_update_interval =
      static_cast<SimTime>(options.get_size("update-interval", 0));
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

  if (options.get_bool("series", false)) {
    driver::print_series_csv(std::cout, driver::scheme_name(*scheme), result.series);
    return 0;
  }

  driver::print_summary(std::cout, driver::scheme_name(*scheme), result);
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
