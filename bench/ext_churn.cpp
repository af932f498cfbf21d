// Extension EXT-CHURN — message loss x proxy churn grid (paper Section
// V.1 stops at a single cold restart; this sweeps the two failure axes
// together): every message is dropped with probability `loss`, and the
// churn schedule crashes proxy 2 for a window of simulated time (once, or
// twice for "periodic"), dropping everything to or from it while down.
//
// Lossy runs need the client's per-request deadline, so expired requests
// show up as a failure rate instead of a stalled closed loop.  ADC routes
// around the damage (stale table entries invalidate into origin fetches
// and relearn); CARP keeps hashing into the dead owner until it returns.
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

struct ChurnSchedule {
  const char* name;
  /// Crash windows as fractions of the healthy run's simulated duration.
  std::vector<std::pair<double, double>> windows;
};

}  // namespace

int main(int argc, char** argv) {
  int workers = 0;
  util::CliParser cli("Extension: message loss x proxy churn.");
  cli.bind("workers", &workers, bench::kWorkersHelp);
  if (const auto exit_code = cli.parse_main(argc, argv)) return *exit_code;

  const double scale = bench::bench_scale();
  const workload::Trace trace = bench::paper_trace(scale);
  bench::print_run_banner("Extension: message loss x proxy churn", scale, trace);

  const std::vector<driver::Scheme> schemes = {driver::Scheme::kAdc, driver::Scheme::kCarp};
  const std::vector<double> losses = {0.0, 0.02, 0.05};
  const std::vector<ChurnSchedule> churns = {
      {"none", {}},
      {"crash", {{0.40, 0.55}}},
      {"periodic", {{0.25, 0.35}, {0.55, 0.65}, {0.80, 0.90}}},
  };

  // Healthy probe per scheme: its simulated duration places the crash
  // windows, and its tail latency sizes the request deadline so only
  // genuinely lost requests expire.
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
    const SimTime sim_end = probe_results[s].sim_end_time;
    const auto deadline = std::max<SimTime>(
        static_cast<SimTime>(std::llround(probe_results[s].latency_p99 * 20.0)), 1000);
    for (const double loss : losses) {
      for (const ChurnSchedule& churn : churns) {
        driver::ExperimentConfig config = probes[s];
        config.fault_plan.drop_prob = loss;
        for (const auto& [from, until] : churn.windows) {
          fault::CrashWindow window;
          window.node = 2;
          window.at = static_cast<SimTime>(static_cast<double>(sim_end) * from);
          window.restart = static_cast<SimTime>(static_cast<double>(sim_end) * until);
          window.flush_state = true;
          config.fault_plan.crashes.push_back(window);
        }
        if (!config.fault_plan.is_zero()) config.request_timeout = deadline;
        configs.push_back(config);
      }
    }
  }
  const std::vector<driver::ExperimentResult> results =
      driver::run_parallel(configs, trace, workers);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "loss", "churn", "hit_rate", "tail_hit", "fail_rate", "drops",
                  "timeouts"});
  const std::uint64_t tail = std::max<std::uint64_t>(trace.size() / 10, 1000);
  std::size_t index = 0;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for (const double loss : losses) {
      for (const ChurnSchedule& churn : churns) {
        const driver::ExperimentResult& result = results[index++];
        // Series points are indexed by *completed* requests, so the tail
        // window must be too — failed requests never produce a sample.
        const std::uint64_t completed = result.summary.completed;
        const std::uint64_t tail_begin = completed > tail ? completed - tail : 0;
        rows.push_back({std::string(driver::scheme_name(schemes[s])), driver::fmt(loss, 2),
                        churn.name, driver::fmt(result.summary.hit_rate(), 3),
                        driver::fmt(window_mean(result.series, tail_begin, completed), 3),
                        driver::fmt(result.summary.failure_rate(), 3),
                        std::to_string(result.faults.total_drops()),
                        std::to_string(result.faults.timeouts)});
      }
    }
  }

  driver::print_table(std::cout, rows);
  std::cout << "\ncrash windows hit proxy[2] (state flushed on entry); tail_hit averages the"
            << "\nlast " << tail << " requests — recovery after the final restart\n";
  return 0;
}
