// Golden-value regression tests for the five figure reproductions
// (Figures 11-15) at small scale: one fixed (config, trace, seed) per
// figure with its headline metrics pinned to exact values.
// run_experiment() is deterministic, so any drift here means a refactor
// changed the simulation — the paper reproduction — not just the code.
//
// Regenerating after an *intentional* behavior change:
//   ADC_GOLDEN_PRINT=1 ./build/tests/adc_tests_integration --gtest_filter='Golden*' 2>&1 | grep GOLDEN
// then paste the printed values over the literals below and say why in
// the commit message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>

#include "driver/experiment.h"
#include "driver/sweep.h"
#include "workload/polygraph.h"

namespace adc::driver {
namespace {

// ~1/500-scale analogue of the paper's three-phase PolyMix-like workload.
workload::Trace golden_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 2000;
  config.phase2_requests = 3000;
  config.phase3_requests = 2500;
  config.hot_set_size = 200;
  config.seed = 42;
  return workload::generate_polygraph_trace(config);
}

// The paper's 5-proxy deployment with table sizes scaled to the trace
// (single=multiple=400, caching=200 mirrors the 20k/20k/10k defaults).
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
  std::cout << "GOLDEN " << label << " completed=" << result.summary.completed
            << " hits=" << result.summary.hits << " total_hops=" << result.summary.total_hops
            << " total_forwards=" << result.summary.total_forwards
            << " origin_served=" << result.origin_served << " messages=" << result.messages
            << " hops_p50=" << result.hops_p50 << " hops_p95=" << result.hops_p95
            << " hops_max=" << result.hops_max << '\n';
}

// Figure 11 (hit rate) + Figure 12 (hops), ADC side.
TEST(GoldenFig11Fig12, AdcRunIsPinned) {
  const auto trace = golden_trace();
  const ExperimentResult result = run_experiment(golden_config(), trace);
  if (print_golden()) print_run("adc", result);

  EXPECT_EQ(result.summary.completed, 7500u);
  EXPECT_EQ(result.summary.hits, 3711u);
  EXPECT_EQ(result.summary.total_hops, 39814u);
  EXPECT_EQ(result.origin_served, 3789u);
  EXPECT_EQ(result.messages, 39814u);
  EXPECT_EQ(result.hops_p50, 4);
  EXPECT_EQ(result.hops_p95, 12);
  EXPECT_EQ(result.hops_max, 14);
}

// Figure 11/12, CARP (hashing baseline) side.
TEST(GoldenFig11Fig12, CarpRunIsPinned) {
  const auto trace = golden_trace();
  ExperimentConfig config = golden_config();
  config.scheme = Scheme::kCarp;
  const ExperimentResult result = run_experiment(config, trace);
  if (print_golden()) print_run("carp", result);

  EXPECT_EQ(result.summary.completed, 7500u);
  EXPECT_EQ(result.summary.hits, 4531u);
  EXPECT_EQ(result.summary.total_hops, 27027u);
  EXPECT_EQ(result.origin_served, 2969u);
  EXPECT_EQ(result.hops_p50, 3);
  EXPECT_EQ(result.hops_p95, 5);
  EXPECT_EQ(result.hops_max, 5);
}

// Figures 13/14: the table-size sweep's per-point hit rate and hops.
// Hit rates are exact ratios of pinned integer counters, so the doubles
// are pinned too (EXPECT_DOUBLE_EQ = 4-ULP tolerance).
TEST(GoldenFig13Fig14, SweepPointsArePinned) {
  const auto trace = golden_trace();
  const auto points = run_table_sweep(golden_config(), trace,
                                      {SweptTable::kCaching, SweptTable::kSingle}, {100, 300});
  ASSERT_EQ(points.size(), 4u);
  if (print_golden()) {
    for (const auto& point : points) {
      std::cout.precision(17);
      std::cout << "GOLDEN sweep " << swept_table_name(point.table) << "/" << point.size
                << " hit_rate=" << point.hit_rate << " avg_hops=" << point.avg_hops << '\n';
    }
  }

  EXPECT_DOUBLE_EQ(points[0].hit_rate, 0.4844);                // caching/100
  EXPECT_DOUBLE_EQ(points[0].avg_hops, 5.3357333333333337);
  EXPECT_DOUBLE_EQ(points[1].hit_rate, 0.49480000000000002);   // caching/300
  EXPECT_DOUBLE_EQ(points[1].avg_hops, 5.3085333333333331);
  EXPECT_DOUBLE_EQ(points[2].hit_rate, 0.47653333333333331);   // single/100
  EXPECT_DOUBLE_EQ(points[2].avg_hops, 5.3975999999999997);
  EXPECT_DOUBLE_EQ(points[3].hit_rate, 0.49080000000000001);   // single/300
  EXPECT_DOUBLE_EQ(points[3].avg_hops, 5.3082666666666665);
}

// Figure 15 runs the same sweep with the paper's *faithful* table
// structures (linked-list single table, binary-searched arrays); the
// plotted quantity is wall time, which cannot be pinned, but the
// simulation outcome must not depend on the table implementation's speed.
TEST(GoldenFig15, FaithfulTableModeIsPinned) {
  const auto trace = golden_trace();
  ExperimentConfig config = golden_config();
  config.adc.table_impl = cache::TableImpl::kFaithful;
  const ExperimentResult result = run_experiment(config, trace);
  if (print_golden()) print_run("faithful", result);

  EXPECT_EQ(result.summary.completed, 7500u);
  EXPECT_EQ(result.summary.hits, 3711u);
  EXPECT_EQ(result.summary.total_hops, 39814u);
  EXPECT_EQ(result.origin_served, 3789u);
  EXPECT_GE(result.wall_seconds, 0.0);
}

}  // namespace
}  // namespace adc::driver
