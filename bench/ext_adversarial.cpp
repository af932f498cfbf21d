// Extension EXT-ADVERSARIAL — scheme robustness under hostile workloads
// (ROADMAP: adversarial and planet-scale workload suite).
//
// The paper's comparison uses well-behaved PolyMix traffic; this bench
// stresses the schemes where content-addressed routing is structurally
// weakest, with the generators from src/workload/adversarial.h:
//
//   * hash-flood  — keys mined (against the real CARP array) to collide
//                   onto one owner, 80% of traffic aimed at them
//   * flash-crowd — one cold URL ramping to 30% of all traffic
//   * diurnal     — the active working set rotates between populations
//
// For each scenario x scheme (ADC, CARP, hierarchical) it reports hit
// rate, tail latency (p99 / p99.9) and the per-owner max/min fairness
// ratio plus the hottest member's share of all proxy-received requests —
// a CARP flood shows up as fairness exploding while ADC's replication
// spreads the same keys across members.
//
// Flags: --workers N (run grid in parallel; results are bit-identical at
// any count), --scale N (multiply request counts for planet-scale runs),
// --json PATH (write the grid as a JSON artifact for CI).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/adversarial.h"

namespace {

using namespace adc;

struct Scenario {
  const char* name;
  workload::Trace trace;
  int victim = -1;  // flood only: the mined owner index
};

}  // namespace

int main(int argc, char** argv) {
  int workers = 0;
  std::string json_path;
  double extra_scale = 1.0;
  util::CliParser cli("Extension: adversarial workloads (hash-flood, flash-crowd, diurnal).");
  cli.bind("workers", &workers, bench::kWorkersHelp)
      .bind("json", &json_path, bench::kJsonHelp)
      .bind("scale", &extra_scale,
            "workload multiplier on top of ADC_BENCH_SCALE (>1 grows past the paper's trace)",
            {1e-6, 1e6});
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;
  workers = driver::resolve_workers(workers);

  const double scale = bench::bench_scale() * extra_scale;
  const auto requests = static_cast<std::uint64_t>(3'990'000 * scale);

  std::cout << "# Extension: adversarial workloads (hash-flood, flash-crowd, diurnal), scale="
            << scale << ", workers=" << workers << "\n";

  std::vector<Scenario> scenarios;
  {
    workload::HashFloodConfig flood;
    flood.requests = requests;
    scenarios.push_back(
        {"hash-flood", workload::generate_hash_flood_trace(flood), flood.victim});
    workload::FlashCrowdConfig flash;
    flash.requests = requests;
    scenarios.push_back({"flash-crowd", workload::generate_flash_crowd_trace(flash)});
    workload::DiurnalConfig diurnal;
    diurnal.requests = requests;
    scenarios.push_back({"diurnal", workload::generate_diurnal_trace(diurnal)});
  }

  const driver::Scheme schemes[] = {driver::Scheme::kAdc, driver::Scheme::kCarp,
                                    driver::Scheme::kHierarchical};

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scenario", "scheme", "hit_rate", "avg_hops", "p99", "p99.9", "fairness",
                  "max_share", "victim_share"});
  std::vector<std::vector<driver::JsonField>> json_rows;

  for (const Scenario& scenario : scenarios) {
    std::vector<driver::ExperimentConfig> configs;
    for (const driver::Scheme scheme : schemes) {
      driver::ExperimentConfig config = bench::paper_config(scale);
      config.scheme = scheme;
      config.sample_every = 0;
      configs.push_back(config);
    }
    const auto results = driver::run_parallel(configs, scenario.trace, workers);
    for (std::size_t s = 0; s < results.size(); ++s) {
      const driver::ExperimentResult& result = results[s];
      const double fairness = result.summary.request_fairness();
      const double max_share = sim::MetricsSummary::max_share(result.summary.owner_requests);
      double victim_share = 0.0;
      if (scenario.victim >= 0 &&
          static_cast<std::size_t>(scenario.victim) < result.summary.owner_requests.size()) {
        std::uint64_t total = 0;
        for (const std::uint64_t c : result.summary.owner_requests) total += c;
        if (total > 0) {
          victim_share = static_cast<double>(
                             result.summary.owner_requests[static_cast<std::size_t>(
                                 scenario.victim)]) /
                         static_cast<double>(total);
        }
      }
      rows.push_back({scenario.name, std::string(driver::scheme_name(configs[s].scheme)),
                      driver::fmt(result.summary.hit_rate(), 3),
                      driver::fmt(result.summary.avg_hops(), 2),
                      driver::fmt(result.latency_p99, 1), driver::fmt(result.latency_p999, 1),
                      driver::fmt(fairness, 2), driver::fmt(max_share, 3),
                      scenario.victim >= 0 ? driver::fmt(victim_share, 3) : "-"});
      json_rows.push_back(
          {driver::json_str("scenario", scenario.name),
           driver::json_str("scheme", driver::scheme_name(configs[s].scheme)),
           driver::json_num("requests", result.summary.completed),
           driver::json_num("hit_rate", result.summary.hit_rate(), 4),
           driver::json_num("avg_hops", result.summary.avg_hops(), 4),
           driver::json_num("latency_p99", result.latency_p99, 2),
           driver::json_num("latency_p999", result.latency_p999, 2),
           driver::json_num("fairness", fairness, 4),
           driver::json_num("max_share", max_share, 4),
           driver::json_num("victim_share", victim_share, 4)});
    }
  }
  driver::print_table(std::cout, rows);
  if (!driver::write_json_rows(json_path, json_rows)) return 1;
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";
  return 0;
}
