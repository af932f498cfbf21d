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
// covers all seven.  The update intervals are fractions of the run length
// without updates, so every row with updates sees some at any
// ADC_BENCH_SCALE.  Accepts --workers N (0 = hardware concurrency) and
// --json PATH for a machine-readable artifact; the grid is bit-identical
// at any worker count.
#include <algorithm>
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

  const std::vector<driver::Scheme> schemes = {
      driver::Scheme::kAdc,          driver::Scheme::kCarp,        driver::Scheme::kConsistent,
      driver::Scheme::kRendezvous,   driver::Scheme::kHierarchical, driver::Scheme::kCoordinator,
      driver::Scheme::kSoap};
  const auto config_for = [scale](driver::Scheme scheme, SimTime interval) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    config.sample_every = 0;
    config.object_update_interval = interval;
    return config;
  };

  // The runs without updates come first: the first (ADC's) sets the run
  // length T that the update intervals are fractions of.  An object's own
  // interval is its mean jittered to [0.5, 1.5), and it first changes one
  // interval into the run, so the grid covers "churns many times per run"
  // (T/30) down to "about half the objects change once" (T) at any scale;
  // a mean of 2T or more would change nothing.
  std::vector<driver::ExperimentConfig> still;
  for (const driver::Scheme scheme : schemes) still.push_back(config_for(scheme, 0));
  const std::vector<driver::ExperimentResult> still_results =
      driver::run_parallel(still, trace, workers);
  const SimTime run_length = std::max<SimTime>(still_results.front().sim_end_time, 30);
  const std::vector<SimTime> intervals = {run_length / 30, run_length / 10, run_length / 3,
                                          run_length};

  std::vector<driver::ExperimentConfig> updating;
  for (const driver::Scheme scheme : schemes) {
    for (const SimTime interval : intervals) updating.push_back(config_for(scheme, interval));
  }
  const std::vector<driver::ExperimentResult> updating_results =
      driver::run_parallel(updating, trace, workers);

  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<driver::JsonField>> json_rows;
  rows.push_back({"scheme", "update_interval", "hit_rate", "stale_rate", "stale_hits"});
  const auto add_row = [&rows, &json_rows](const driver::ExperimentConfig& config,
                                           const driver::ExperimentResult& result) {
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
  };
  // One scheme's rows together: its run without updates, then the grid.
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    add_row(still[s], still_results[s]);
    for (std::size_t i = s * intervals.size(); i < (s + 1) * intervals.size(); ++i) {
      add_row(updating[i], updating_results[i]);
    }
  }
  driver::print_table(std::cout, rows);
  if (!driver::write_json_rows(json_path, json_rows)) return 1;
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";
  return 0;
}
