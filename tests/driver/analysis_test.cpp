#include "driver/analysis.h"

#include <gtest/gtest.h>

#include "workload/polygraph.h"

namespace adc::driver {
namespace {

TEST(LoadBalance, EmptyIsZeros) {
  const LoadStats stats = load_balance({});
  EXPECT_EQ(stats.total, 0u);
  EXPECT_EQ(stats.peak, 0u);
  EXPECT_EQ(stats.peak_share, 0.0);
  EXPECT_EQ(stats.cv, 0.0);
}

TEST(LoadBalance, PerfectlyEven) {
  std::vector<ProxySnapshot> proxies(4);
  for (auto& proxy : proxies) proxy.requests_received = 100;
  const LoadStats stats = load_balance(proxies);
  EXPECT_EQ(stats.total, 400u);
  EXPECT_EQ(stats.peak, 100u);
  EXPECT_DOUBLE_EQ(stats.peak_share, 0.25);
  EXPECT_DOUBLE_EQ(stats.cv, 0.0);
}

TEST(LoadBalance, SkewShowsInPeakAndCv) {
  std::vector<ProxySnapshot> proxies(2);
  proxies[0].requests_received = 300;
  proxies[1].requests_received = 100;
  const LoadStats stats = load_balance(proxies);
  EXPECT_DOUBLE_EQ(stats.peak_share, 0.75);
  EXPECT_DOUBLE_EQ(stats.cv, 0.5);  // mean 200, sd 100
}

TEST(Duplication, PartitionedCachesFactorOne) {
  std::vector<ProxySnapshot> proxies(2);
  proxies[0].cached_ids = {1, 2, 3};
  proxies[1].cached_ids = {4, 5};
  const DuplicationStats stats = duplication(proxies);
  EXPECT_EQ(stats.total_cached, 5u);
  EXPECT_EQ(stats.distinct_cached, 5u);
  EXPECT_DOUBLE_EQ(stats.factor, 1.0);
}

TEST(Duplication, ReplicatedCachesRaiseFactor) {
  std::vector<ProxySnapshot> proxies(3);
  proxies[0].cached_ids = {1, 2};
  proxies[1].cached_ids = {1, 2};
  proxies[2].cached_ids = {1, 3};
  const DuplicationStats stats = duplication(proxies);
  EXPECT_EQ(stats.total_cached, 6u);
  EXPECT_EQ(stats.distinct_cached, 3u);
  EXPECT_DOUBLE_EQ(stats.factor, 2.0);
}

TEST(Duplication, EmptyCachesAreZero) {
  const DuplicationStats stats = duplication(std::vector<ProxySnapshot>(3));
  EXPECT_EQ(stats.total_cached, 0u);
  EXPECT_EQ(stats.factor, 0.0);
}

class AnalysisEndToEnd : public ::testing::Test {
 protected:
  static workload::Trace trace() {
    workload::PolygraphConfig config;
    config.fill_requests = 1000;
    config.phase2_requests = 2000;
    config.phase3_requests = 1500;
    config.hot_set_size = 120;
    config.seed = 41;
    return workload::generate_polygraph_trace(config);
  }

  static ExperimentConfig config(Scheme scheme) {
    ExperimentConfig out;
    out.scheme = scheme;
    out.proxies = 3;
    out.adc.single_table_size = 200;
    out.adc.multiple_table_size = 200;
    out.adc.caching_table_size = 100;
    out.ma_window = 200;
    out.sample_every = 200;
    out.collect_cache_contents = true;
    return out;
  }
};

TEST_F(AnalysisEndToEnd, PhaseBreakdownCoversWholeTrace) {
  const auto t = trace();
  const auto result = run_experiment(config(Scheme::kAdc), t);
  const auto phases = phase_breakdown(result, t.phases(), t.size());
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].name, "fill");
  EXPECT_EQ(phases[0].begin, 0u);
  EXPECT_EQ(phases[0].end, t.phases().fill_end);
  EXPECT_EQ(phases[2].end, t.size());
  for (const auto& phase : phases) EXPECT_GT(phase.samples, 0u) << phase.name;
  // Fill is cold; the later phases are warmer.
  EXPECT_LT(phases[0].hit_rate, phases[1].hit_rate);
  EXPECT_LT(phases[0].hit_rate, phases[2].hit_rate);
}

TEST_F(AnalysisEndToEnd, CarpPartitionsAdcReplicates) {
  const auto t = trace();
  const auto carp = run_experiment(config(Scheme::kCarp), t);
  const auto carp_dup = duplication(carp.proxies);
  EXPECT_GT(carp_dup.total_cached, 0u);
  EXPECT_DOUBLE_EQ(carp_dup.factor, 1.0);

  const auto adc = run_experiment(config(Scheme::kAdc), t);
  const auto adc_dup = duplication(adc.proxies);
  EXPECT_GT(adc_dup.total_cached, 0u);
  EXPECT_GT(adc_dup.factor, 1.05);
}

TEST_F(AnalysisEndToEnd, CachedIdsMatchReportedCounts) {
  const auto t = trace();
  for (const Scheme scheme : {Scheme::kAdc, Scheme::kCarp, Scheme::kSoap}) {
    const auto result = run_experiment(config(scheme), t);
    for (const auto& proxy : result.proxies) {
      EXPECT_EQ(proxy.cached_ids.size(), proxy.cached_objects)
          << scheme_name(scheme) << " " << proxy.name;
    }
  }
}

TEST_F(AnalysisEndToEnd, ContentsNotCollectedByDefault) {
  const auto t = trace();
  ExperimentConfig no_contents = config(Scheme::kAdc);
  no_contents.collect_cache_contents = false;
  const auto result = run_experiment(no_contents, t);
  for (const auto& proxy : result.proxies) EXPECT_TRUE(proxy.cached_ids.empty());
}

TEST_F(AnalysisEndToEnd, LoadBalanceFromRealRunIsReasonable) {
  const auto t = trace();
  const auto result = run_experiment(config(Scheme::kAdc), t);
  const auto load = load_balance(result.proxies);
  EXPECT_GT(load.total, t.size());  // forwarding multiplies receipts
  EXPECT_LT(load.peak_share, 0.55);
  EXPECT_LT(load.cv, 0.5);
}

}  // namespace
}  // namespace adc::driver
