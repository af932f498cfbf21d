// Extension EXT-MEMBER — live membership vs a static view under a
// permanent member loss (paper Section V.1 restarts its crashed proxy;
// here proxy 2 never comes back).  Each scheme runs the same permanent
// crash twice: once with the membership layer off (the static view every
// figure in the paper assumes) and once with the SWIM detector on, which
// confirms the death, rebuilds the CARP/HRW owner array (measuring the
// reshuffled URL fraction) or purges the ADC mapping entries naming the
// dead member, and fires the transition-gated anti-entropy rounds.
//
// The claim under test: self-healing membership converts a permanent
// member loss from a standing tax (every walk that touches the ghost
// burns a timeout or a degraded origin fetch, forever) into a one-time
// reshuffle whose post-crash hit rate re-approaches the healthy run.
//
// Accepts --workers N (0 = hardware concurrency); the grid is
// bit-identical at any worker count.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"

namespace {

using namespace adc;

double window_mean(const std::vector<sim::SeriesPoint>& series, std::uint64_t begin,
                   std::uint64_t end) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& point : series) {
    if (point.requests > begin && point.requests <= end) {
      sum += point.hit_rate;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 0;
  util::CliParser cli("Extension: membership vs static view under permanent loss.");
  cli.bind("workers", &workers, bench::kWorkersHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: membership vs static view under permanent loss", scale,
                          trace);

  const std::vector<driver::Scheme> schemes = {driver::Scheme::kAdc, driver::Scheme::kCarp};
  constexpr double kCrashAt = 0.35;  // fraction of the healthy simulated run

  // Healthy probes: place the crash and size the request deadline.
  std::vector<driver::ExperimentConfig> probes;
  for (const auto scheme : schemes) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    probes.push_back(config);
  }
  const std::vector<driver::ExperimentResult> probe_results =
      driver::run_parallel(probes, trace, workers);

  std::vector<driver::ExperimentConfig> configs;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const auto deadline = std::max<SimTime>(
        static_cast<SimTime>(std::llround(probe_results[s].latency_p99 * 20.0)), 1000);
    for (const bool membership : {false, true}) {
      driver::ExperimentConfig config = probes[s];
      fault::CrashWindow window;
      window.node = 2;
      window.at = static_cast<SimTime>(static_cast<double>(probe_results[s].sim_end_time) *
                                       kCrashAt);
      window.restart = kSimTimeMax;  // permanent: the member never returns
      window.flush_state = true;
      config.fault_plan.crashes.push_back(window);
      config.request_timeout = deadline;
      config.membership.swim.enabled = membership;
      configs.push_back(config);
    }
  }
  const std::vector<driver::ExperimentResult> results =
      driver::run_parallel(configs, trace, workers);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "membership", "hit_rate", "post_hit", "dip", "fail_rate", "epoch",
                  "reshuffle", "repairs", "invalidated"});
  std::size_t index = 0;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    // The dip compares the post-crash request window against the healthy
    // run's same window (series points are indexed by completed requests,
    // and the crash lands at ~kCrashAt of those).
    const std::uint64_t healthy_completed = probe_results[s].summary.completed;
    const auto window_begin =
        static_cast<std::uint64_t>(static_cast<double>(healthy_completed) * kCrashAt);
    const double healthy_post =
        window_mean(probe_results[s].series, window_begin, healthy_completed);
    for (const bool membership : {false, true}) {
      const driver::ExperimentResult& result = results[index++];
      const double post =
          window_mean(result.series, window_begin, result.summary.completed);
      rows.push_back({std::string(driver::scheme_name(schemes[s])),
                      membership ? "swim" : "static",
                      driver::fmt(result.summary.hit_rate(), 3), driver::fmt(post, 3),
                      driver::fmt(healthy_post - post, 3),
                      driver::fmt(result.summary.failure_rate(), 3),
                      std::to_string(result.membership.max_epoch),
                      driver::fmt(result.membership.max_reshuffle_fraction, 3),
                      std::to_string(result.membership.repair_rounds),
                      std::to_string(result.faults.entries_invalidated)});
    }
  }

  driver::print_table(std::cout, rows);
  std::cout << "\nproxy[2] crashes for good at " << driver::fmt(kCrashAt, 2)
            << " of the healthy run (state flushed); post_hit averages the hit rate"
            << "\nover the post-crash request window, dip is the healthy run's same window"
            << "\nminus post_hit; reshuffle is the worst owner-map fraction a survivor"
            << "\nremeasured on the epoch bump\n";
  return 0;
}
