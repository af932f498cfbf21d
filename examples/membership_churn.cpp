// Membership churn: watch a self-organizing proxy system lose a member's
// state and heal — the "changes of the infrastructure" scenario the paper
// reserves for future work.
//
//   ./membership_churn [--scheme adc] [--requests 120000] [--victim 2]
//
// Prints the moving-average hit rate around the fault so the dip and the
// recovery slope are visible in the terminal.
#include <iostream>

#include "driver/experiment.h"
#include "driver/report.h"
#include "util/cli.h"
#include "workload/polygraph.h"

int main(int argc, char** argv) {
  using namespace adc;

  util::CliParser cli("Proxy cold-restart demo: dip and recovery of the hit rate.");
  cli.option("scheme", "adc", "adc | carp | consistent | rendezvous | hierarchical | soap")
      .option("requests", "120000", "approximate trace length")
      .option("victim", "2", "index of the proxy to flush")
      .option("proxies", "5", "number of cooperating proxies");
  std::string error;
  if (!cli.parse(argc, argv, &error)) {
    std::cerr << error << '\n' << cli.help_text();
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }

  const auto scheme = driver::parse_scheme(cli.config().get_string("scheme", "adc"));
  if (!scheme) {
    std::cerr << "unknown scheme\n";
    return 1;
  }

  const auto requests = cli.config().get_size("requests", 120000);
  const double scale = static_cast<double>(requests) / 3'990'000.0;
  const workload::Trace trace =
      workload::generate_polygraph_trace(workload::PolygraphConfig::scaled(scale));

  driver::ExperimentConfig config;
  config.scheme = *scheme;
  config.proxies = static_cast<int>(cli.config().get_int("proxies", 5));
  config.adc.single_table_size = std::max<std::size_t>(static_cast<std::size_t>(20000 * scale), 64);
  config.adc.multiple_table_size = config.adc.single_table_size;
  config.adc.caching_table_size = std::max<std::size_t>(static_cast<std::size_t>(10000 * scale), 32);
  config.ma_window = std::max<std::size_t>(trace.size() / 100, 200);
  config.sample_every = config.ma_window;
  config.fault.at_completed = trace.size() * 3 / 5;
  config.fault.proxy_index = static_cast<int>(cli.config().get_int("victim", 2));
  if (const std::string invalid = config.validate(); !invalid.empty()) {
    std::cerr << "invalid configuration: " << invalid << '\n';
    return 1;
  }

  const driver::ExperimentResult result = driver::run_experiment(config, trace);

  std::cout << "scheme " << driver::scheme_name(*scheme) << ", fault at request "
            << config.fault.at_completed << " (proxy[" << config.fault.proxy_index
            << "] flushed)\n\n";

  // ASCII strip chart of the moving-average hit rate around the fault.
  const std::uint64_t lo = config.fault.at_completed > trace.size() / 4
                               ? config.fault.at_completed - trace.size() / 4
                               : 0;
  for (const auto& point : result.series) {
    if (point.requests < lo) continue;
    const int bar = static_cast<int>(point.hit_rate * 60);
    std::cout << (point.requests == config.fault.at_completed ? "FAULT " : "      ");
    printf("%9llu |", static_cast<unsigned long long>(point.requests));
    for (int i = 0; i < bar; ++i) std::cout << '#';
    std::cout << ' ' << driver::fmt(point.hit_rate, 3) << '\n';
  }

  std::cout << '\n';
  driver::print_summary(std::cout, driver::scheme_name(*scheme), result);
  return 0;
}
