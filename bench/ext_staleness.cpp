// Extension EXT-STALE — cache consistency under mutable objects.
//
// The paper's model (like its hashing baseline) assumes immutable objects;
// the broader literature it builds on (web cache consistency, Gwertzman &
// Seltzer) does not.  Here the origin updates every object on a jittered
// interval and we measure the *stale hit rate*: the fraction of cache hits
// that served outdated data.  ADC's selective caching holds popular
// objects for a long time and replicates them — both raise staleness —
// while CARP's single LRU copy refreshes on every churn cycle.  The sweep
// shows the freshness/hit-rate trade-off per scheme.
//
// Every scheme keeps the versions of its cached objects, so the grid
// covers all seven.  Accepts --workers N (0 = hardware concurrency) and
// --json PATH for a machine-readable artifact; the grid is bit-identical
// at any worker count.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace adc;

  int workers = 0;
  std::string json_path;
  util::CliParser cli("Extension: stale hits under origin-side object updates.");
  cli.bind("workers", &workers, bench::kWorkersHelp)
      .bind("json", &json_path, bench::kJsonHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: stale hits under origin-side object updates", scale,
                          trace);

  // Mean update intervals in simulated time units.  A full trace spans
  // roughly trace.size() * avg_latency time units (~6M at the default
  // scale); the grid covers "churns many times per run" down to "changes
  // once or twice".
  const std::vector<SimTime> intervals = {0, 200'000, 1'000'000, 5'000'000, 20'000'000};

  std::vector<driver::ExperimentConfig> configs;
  for (const auto scheme : {driver::Scheme::kAdc, driver::Scheme::kCarp,
                            driver::Scheme::kConsistent, driver::Scheme::kRendezvous,
                            driver::Scheme::kHierarchical, driver::Scheme::kCoordinator,
                            driver::Scheme::kSoap}) {
    for (const SimTime interval : intervals) {
      driver::ExperimentConfig config = bench::paper_config(scale);
      config.scheme = scheme;
      config.sample_every = 0;
      config.object_update_interval = interval;
      configs.push_back(config);
    }
  }
  const std::vector<driver::ExperimentResult> results =
      driver::run_parallel(configs, trace, workers);

  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<driver::JsonField>> json_rows;
  rows.push_back({"scheme", "update_interval", "hit_rate", "stale_rate", "stale_hits"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const driver::ExperimentConfig& config = configs[i];
    const driver::ExperimentResult& result = results[i];
    const SimTime interval = config.object_update_interval;
    rows.push_back({std::string(driver::scheme_name(config.scheme)),
                    interval == 0 ? "off" : std::to_string(interval),
                    driver::fmt(result.summary.hit_rate(), 3),
                    driver::fmt(result.summary.stale_rate(), 4),
                    std::to_string(result.summary.stale_hits)});
    json_rows.push_back(
        {driver::json_str("scheme", driver::scheme_name(config.scheme)),
         driver::json_num("update_interval", static_cast<std::uint64_t>(interval)),
         driver::json_num("hit_rate", result.summary.hit_rate(), 4),
         driver::json_num("stale_rate", result.summary.stale_rate(), 4),
         driver::json_num("stale_hits", result.summary.stale_hits)});
  }
  driver::print_table(std::cout, rows);
  if (!driver::write_json_rows(json_path, json_rows)) return 1;
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";
  return 0;
}
