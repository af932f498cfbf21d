// Golden-value regression test for the metrics extensions: per-owner
// request/hit counters (the fairness inputs), tail-latency percentiles,
// and the fairness ratios themselves, pinned for small fixed-seed
// Figure-11/12 style ADC and CARP runs.  run_experiment() is
// deterministic, so any drift means the simulation or the metrics
// plumbing changed, not just formatting.
//
// Regenerating after an *intentional* behavior change:
//   ADC_GOLDEN_PRINT=1 ./build/tests/adc_tests_driver --gtest_filter='GoldenMetrics*' 2>&1 | grep GOLDEN
// then paste the printed values over the literals below and say why in
// the commit message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>

#include "driver/experiment.h"
#include "workload/polygraph.h"

namespace adc::driver {
namespace {

// Same ~1/500-scale workload the integration golden tests use.
workload::Trace golden_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 2000;
  config.phase2_requests = 3000;
  config.phase3_requests = 2500;
  config.hot_set_size = 200;
  config.seed = 42;
  return workload::generate_polygraph_trace(config);
}

ExperimentConfig golden_config() {
  ExperimentConfig config;
  config.scheme = Scheme::kAdc;
  config.proxies = 5;
  config.adc.single_table_size = 400;
  config.adc.multiple_table_size = 400;
  config.adc.caching_table_size = 200;
  config.seed = 1;
  config.ma_window = 500;
  config.sample_every = 0;
  return config;
}

bool print_golden() { return std::getenv("ADC_GOLDEN_PRINT") != nullptr; }

void print_run(const char* label, const ExperimentResult& result) {
  std::cout.precision(17);
  std::cout << "GOLDEN " << label << " p99=" << result.latency_p99
            << " p999=" << result.latency_p999
            << " fairness=" << result.summary.request_fairness()
            << " hit_fairness=" << result.summary.hit_fairness() << " owner_requests=";
  for (const auto c : result.summary.owner_requests) std::cout << c << ",";
  std::cout << " owner_hits=";
  for (const auto c : result.summary.owner_hits) std::cout << c << ",";
  std::cout << '\n';
}

TEST(GoldenMetrics, AdcOwnerCountersAndTailsArePinned) {
  const auto trace = golden_trace();
  const ExperimentResult result = run_experiment(golden_config(), trace);
  if (print_golden()) print_run("adc", result);

  // The per-owner counters mirror the proxy snapshots exactly.
  ASSERT_EQ(result.summary.owner_requests.size(), 5u);
  ASSERT_EQ(result.proxies.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.summary.owner_requests[i], result.proxies[i].requests_received);
    EXPECT_EQ(result.summary.owner_hits[i], result.proxies[i].local_hits);
  }

  // And the summary percentiles mirror ExperimentResult's.
  EXPECT_DOUBLE_EQ(result.summary.latency_p99, result.latency_p99);
  EXPECT_DOUBLE_EQ(result.summary.latency_p999, result.latency_p999);

  EXPECT_EQ(result.summary.owner_requests[0], 3309u);
  EXPECT_EQ(result.summary.owner_requests[1], 3180u);
  EXPECT_EQ(result.summary.owner_requests[2], 3268u);
  EXPECT_EQ(result.summary.owner_requests[3], 3128u);
  EXPECT_EQ(result.summary.owner_requests[4], 3233u);
  EXPECT_EQ(result.summary.owner_hits[0], 817u);
  EXPECT_EQ(result.summary.owner_hits[1], 704u);
  EXPECT_EQ(result.summary.owner_hits[2], 776u);
  EXPECT_EQ(result.summary.owner_hits[3], 732u);
  EXPECT_EQ(result.summary.owner_hits[4], 682u);
  EXPECT_DOUBLE_EQ(result.summary.request_fairness(), 1.0578644501278773);
  EXPECT_DOUBLE_EQ(result.latency_p99, 42.0);
  EXPECT_DOUBLE_EQ(result.latency_p999, 42.0);
}

TEST(GoldenMetrics, CarpOwnerCountersAndTailsArePinned) {
  const auto trace = golden_trace();
  ExperimentConfig config = golden_config();
  config.scheme = Scheme::kCarp;
  const ExperimentResult result = run_experiment(config, trace);
  if (print_golden()) print_run("carp", result);

  ASSERT_EQ(result.summary.owner_requests.size(), 5u);
  EXPECT_EQ(result.summary.owner_requests[0], 2696u);
  EXPECT_EQ(result.summary.owner_requests[1], 2459u);
  EXPECT_EQ(result.summary.owner_requests[2], 2508u);
  EXPECT_EQ(result.summary.owner_requests[3], 3340u);
  EXPECT_EQ(result.summary.owner_requests[4], 2586u);
  EXPECT_EQ(result.summary.owner_hits[0], 889u);
  EXPECT_EQ(result.summary.owner_hits[1], 594u);
  EXPECT_EQ(result.summary.owner_hits[2], 690u);
  EXPECT_EQ(result.summary.owner_hits[3], 1589u);
  EXPECT_EQ(result.summary.owner_hits[4], 769u);
  EXPECT_DOUBLE_EQ(result.summary.request_fairness(), 1.3582757218381456);
  EXPECT_DOUBLE_EQ(result.latency_p99, 24.0);
  EXPECT_DOUBLE_EQ(result.latency_p999, 24.0);
}

}  // namespace
}  // namespace adc::driver
