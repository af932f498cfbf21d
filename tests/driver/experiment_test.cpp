#include "driver/experiment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "workload/polygraph.h"

namespace adc::driver {
namespace {

workload::Trace small_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 1500;
  config.phase2_requests = 2500;
  config.phase3_requests = 2000;
  config.hot_set_size = 150;
  config.seed = 3;
  return workload::generate_polygraph_trace(config);
}

ExperimentConfig small_config(Scheme scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.proxies = 3;
  config.adc.single_table_size = 200;
  config.adc.multiple_table_size = 200;
  config.adc.caching_table_size = 100;
  config.ma_window = 200;
  config.sample_every = 500;
  return config;
}

std::optional<Scheme> named(std::string_view name) {
  for (const auto& [known, scheme] : scheme_names()) {
    if (known == name) return scheme;
  }
  return std::nullopt;
}

TEST(SchemeNames, RoundTrip) {
  for (const Scheme scheme :
       {Scheme::kAdc, Scheme::kCarp, Scheme::kConsistent, Scheme::kRendezvous,
        Scheme::kHierarchical, Scheme::kCoordinator, Scheme::kSoap}) {
    const auto parsed = named(scheme_name(scheme));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, scheme);
  }
}

TEST(SchemeNames, CanonicalNames) {
  EXPECT_EQ(scheme_name(Scheme::kAdc), "adc");
  EXPECT_EQ(scheme_name(Scheme::kCarp), "carp");
  EXPECT_EQ(scheme_name(Scheme::kConsistent), "consistent");
  EXPECT_EQ(scheme_name(Scheme::kRendezvous), "rendezvous");
  EXPECT_EQ(scheme_name(Scheme::kHierarchical), "hierarchical");
  EXPECT_EQ(scheme_name(Scheme::kCoordinator), "coordinator");
  EXPECT_EQ(scheme_name(Scheme::kSoap), "soap");
}

TEST(SchemeNames, Aliases) {
  EXPECT_EQ(named("hash"), Scheme::kCarp);
  EXPECT_EQ(named("ring"), Scheme::kConsistent);
  EXPECT_EQ(named("hrw"), Scheme::kRendezvous);
  EXPECT_EQ(named("hier"), Scheme::kHierarchical);
  EXPECT_EQ(named("central"), Scheme::kCoordinator);
  EXPECT_FALSE(named("nonsense").has_value());
}

class AllSchemesTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(AllSchemesTest, CompletesEveryRequest) {
  const auto trace = small_trace();
  const auto result = run_experiment(small_config(GetParam()), trace);
  EXPECT_EQ(result.summary.completed, trace.size());
}

TEST_P(AllSchemesTest, ConservationHitsPlusOriginEqualsCompleted) {
  const auto trace = small_trace();
  const auto result = run_experiment(small_config(GetParam()), trace);
  EXPECT_EQ(result.summary.hits + result.origin_served, result.summary.completed);
}

TEST_P(AllSchemesTest, MetricsAreSane) {
  const auto trace = small_trace();
  const auto result = run_experiment(small_config(GetParam()), trace);
  EXPECT_GE(result.summary.hit_rate(), 0.0);
  EXPECT_LE(result.summary.hit_rate(), 1.0);
  EXPECT_GE(result.summary.avg_hops(), 2.0);  // at least client->node->client
  EXPECT_GT(result.events, trace.size());
  EXPECT_GT(result.messages, trace.size());
  EXPECT_GT(result.sim_end_time, 0);
  EXPECT_GE(result.wall_seconds, 0.0);
}

TEST_P(AllSchemesTest, DeterministicAcrossRuns) {
  const auto trace = small_trace();
  const auto a = run_experiment(small_config(GetParam()), trace);
  const auto b = run_experiment(small_config(GetParam()), trace);
  EXPECT_EQ(a.summary.hits, b.summary.hits);
  EXPECT_EQ(a.summary.total_hops, b.summary.total_hops);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
}

TEST_P(AllSchemesTest, SeedChangesRandomizedSchedules) {
  const auto trace = small_trace();
  ExperimentConfig config = small_config(GetParam());
  const auto a = run_experiment(config, trace);
  config.seed = 99;
  const auto b = run_experiment(config, trace);
  // Entry-proxy choices differ, so message counts almost surely differ
  // for randomized schemes; at minimum nothing crashes and conservation
  // still holds.
  EXPECT_EQ(b.summary.hits + b.origin_served, b.summary.completed);
}

TEST_P(AllSchemesTest, ProxySnapshotsCoverAllProxies) {
  const auto trace = small_trace();
  const auto result = run_experiment(small_config(GetParam()), trace);
  ASSERT_EQ(result.proxies.size(), 3u);
  std::uint64_t received = 0;
  for (const auto& proxy : result.proxies) received += proxy.requests_received;
  EXPECT_GT(received, 0u);
}

TEST_P(AllSchemesTest, SeriesRespectsSampleStride) {
  const auto trace = small_trace();
  const auto result = run_experiment(small_config(GetParam()), trace);
  ASSERT_FALSE(result.series.empty());
  EXPECT_EQ(result.series.front().requests, 500u);
  EXPECT_EQ(result.series.size(), trace.size() / 500);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AllSchemesTest,
                         ::testing::Values(Scheme::kAdc, Scheme::kCarp, Scheme::kConsistent,
                                           Scheme::kRendezvous, Scheme::kHierarchical,
                                           Scheme::kCoordinator, Scheme::kSoap),
                         [](const auto& info) { return std::string(scheme_name(info.param)); });

TEST(Experiment, TraceStreamWalksWholeTrace) {
  const auto trace = small_trace();
  TraceStream stream(trace);
  std::uint64_t count = 0;
  while (stream.next().has_value()) ++count;
  EXPECT_EQ(count, trace.size());
  EXPECT_EQ(stream.cursor(), trace.size());
  EXPECT_FALSE(stream.next().has_value());
}

TEST(Experiment, SingleProxyDeploymentWorks) {
  ExperimentConfig config = small_config(Scheme::kAdc);
  config.proxies = 1;
  const auto trace = small_trace();
  const auto result = run_experiment(config, trace);
  EXPECT_EQ(result.summary.completed, trace.size());
  EXPECT_EQ(result.summary.hits + result.origin_served, trace.size());
}

TEST(Experiment, ConcurrencyCompletesEverything) {
  ExperimentConfig config = small_config(Scheme::kAdc);
  config.concurrency = 8;
  const auto trace = small_trace();
  const auto result = run_experiment(config, trace);
  EXPECT_EQ(result.summary.completed, trace.size());
  EXPECT_EQ(result.summary.hits + result.origin_served, trace.size());
}

TEST(Experiment, BaselineCapacityDefaultsToCachingTable) {
  // A CARP run with explicit capacity equal to the ADC caching size must
  // match the default-capacity run exactly.
  const auto trace = small_trace();
  ExperimentConfig defaulted = small_config(Scheme::kCarp);
  ExperimentConfig explicit_cap = defaulted;
  explicit_cap.baseline_cache_capacity = defaulted.adc.caching_table_size;
  const auto a = run_experiment(defaulted, trace);
  const auto b = run_experiment(explicit_cap, trace);
  EXPECT_EQ(a.summary.hits, b.summary.hits);
  EXPECT_EQ(a.summary.total_hops, b.summary.total_hops);
}

TEST(Experiment, EntryCachingChangesCarpBehaviour) {
  const auto trace = small_trace();
  ExperimentConfig bypass = small_config(Scheme::kCarp);
  ExperimentConfig through = bypass;
  through.entry_caching = true;
  const auto a = run_experiment(bypass, trace);
  const auto b = run_experiment(through, trace);
  // Entry caching adds replicas: it must change (typically raise) the hit
  // count on a recurrent workload.
  EXPECT_NE(a.summary.hits, b.summary.hits);
}

TEST(Experiment, SlowProxyRaisesLatencyForContentAddressedSchemes) {
  const auto trace = small_trace();
  driver::ExperimentConfig even = small_config(Scheme::kCarp);
  driver::ExperimentConfig slow = even;
  slow.slow_proxy_index = 1;
  slow.slow_proxy_delay = 20;
  const auto even_result = run_experiment(even, trace);
  const auto slow_result = run_experiment(slow, trace);
  EXPECT_GT(slow_result.summary.avg_latency(), even_result.summary.avg_latency() + 1.0);
  // Hits and hops are latency-independent for CARP (no randomized search).
  EXPECT_EQ(slow_result.summary.hits, even_result.summary.hits);
}

TEST(Experiment, CoordinatorRoutesAroundTheSlowProxy) {
  const auto trace = small_trace();
  driver::ExperimentConfig config = small_config(Scheme::kCoordinator);
  config.slow_proxy_index = 1;
  config.slow_proxy_delay = 50;
  const auto result = run_experiment(config, trace);
  std::uint64_t total = 0;
  for (const auto& proxy : result.proxies) total += proxy.requests_received;
  const double slow_share =
      static_cast<double>(result.proxies[1].requests_received) / static_cast<double>(total);
  // Far below the fair 1/3 share: the response-time learning avoids it.
  EXPECT_LT(slow_share, 0.15);
}

TEST(Experiment, HopPercentilesAreOrderedAndPlausible) {
  const auto trace = small_trace();
  for (const Scheme scheme : {Scheme::kAdc, Scheme::kCarp}) {
    const auto result = run_experiment(small_config(scheme), trace);
    EXPECT_GE(result.hops_p50, 2) << scheme_name(scheme);
    EXPECT_LE(result.hops_p50, result.hops_p95) << scheme_name(scheme);
    EXPECT_LE(result.hops_p95, result.hops_max) << scheme_name(scheme);
    EXPECT_NEAR(result.summary.avg_hops(), result.hops_p50, 4.0) << scheme_name(scheme);
  }
}

TEST(Experiment, CarpLoadFactorsShiftOwnership) {
  const auto trace = small_trace();
  ExperimentConfig config = small_config(Scheme::kCarp);
  config.collect_cache_contents = true;
  const auto even = run_experiment(config, trace);
  config.carp_load_factors = {1.0, 1.0, 0.2};
  const auto skewed = run_experiment(config, trace);
  // The down-weighted proxy owns a fraction of the URL space, so the
  // owner-forwarded traffic it receives drops well below the even run's.
  EXPECT_LT(skewed.proxies[2].requests_received,
            even.proxies[2].requests_received * 8 / 10);
  // And its peers pick up the difference.
  EXPECT_GT(skewed.proxies[0].requests_received, even.proxies[0].requests_received);
  // Conservation still holds.
  EXPECT_EQ(skewed.summary.hits + skewed.origin_served, trace.size());
}

TEST(Experiment, TraceFileRoundTripGivesIdenticalResults) {
  const auto trace = small_trace();
  const std::string path = ::testing::TempDir() + "/adc_experiment_roundtrip.trace";
  ASSERT_TRUE(trace.save_binary(path));
  workload::Trace reloaded;
  std::string error;
  ASSERT_TRUE(workload::Trace::load_binary(path, &reloaded, &error)) << error;
  const auto direct = run_experiment(small_config(Scheme::kAdc), trace);
  const auto from_disk = run_experiment(small_config(Scheme::kAdc), reloaded);
  EXPECT_EQ(direct.summary.hits, from_disk.summary.hits);
  EXPECT_EQ(direct.summary.total_hops, from_disk.summary.total_hops);
  EXPECT_EQ(direct.messages, from_disk.messages);
  std::remove(path.c_str());
}

TEST(Experiment, AdcTotalsAggregatePerProxyStats) {
  const auto trace = small_trace();
  const auto result = run_experiment(small_config(Scheme::kAdc), trace);
  EXPECT_GT(result.adc_totals.requests_received, 0u);
  EXPECT_EQ(result.adc_totals.local_hits, result.summary.hits);
  EXPECT_GT(result.adc_totals.replies_relayed, 0u);
}

// Fault targets are checked in every build, not by an assert that NDEBUG
// compiles out: an out-of-range victim would index past the proxy list.
TEST(ExperimentValidate, AcceptsDefaultAndDisabledFaults) {
  ExperimentConfig config = small_config(Scheme::kAdc);
  EXPECT_EQ(config.validate(), "");
  config.fault.proxy_index = 7;  // ignored while the fault is off
  EXPECT_EQ(config.validate(), "");
  fault::CrashWindow keep_state;
  keep_state.node = 3;  // the origin: a crash that keeps state only drops traffic
  keep_state.flush_state = false;
  config.fault_plan.crashes.push_back(keep_state);
  EXPECT_EQ(config.validate(), "");
}

TEST(ExperimentValidate, RejectsFaultProxyOutsideTheDeployment) {
  for (const int index : {-1, 3, 7}) {
    ExperimentConfig config = small_config(Scheme::kCarp);
    config.fault.at_completed = 1000;
    config.fault.proxy_index = index;
    const std::string error = config.validate();
    EXPECT_NE(error.find("fault.proxy_index " + std::to_string(index)), std::string::npos)
        << error;
    EXPECT_THROW(run_experiment(config, small_trace()), std::invalid_argument);
  }
}

TEST(ExperimentValidate, RejectsFlushingCrashWindowOnANonProxy) {
  // Flushing state would treat the origin (node 3) or the client (node 4)
  // as a proxy.
  for (const NodeId node : {3, 4}) {
    ExperimentConfig config = small_config(Scheme::kAdc);
    fault::CrashWindow window;
    window.node = node;
    window.at = 100;
    config.fault_plan.crashes.push_back(window);
    config.request_timeout = 1000;
    EXPECT_NE(config.validate().find("crash window on node " + std::to_string(node)),
              std::string::npos);
    EXPECT_THROW(run_experiment(config, small_trace()), std::invalid_argument);
  }
}

// A repair item counts its offers in 8 bits, so the limit must fit them.
TEST(ExperimentValidate, RejectsRepairMaxAttemptsOutsideItsRange) {
  ExperimentConfig config = small_config(Scheme::kCarp);
  for (const int attempts : {1, 255}) {
    config.payload.erasure.repair_max_attempts = attempts;
    EXPECT_EQ(config.validate(), "");
  }
  for (const int attempts : {0, 256}) {
    config.payload.erasure.repair_max_attempts = attempts;
    EXPECT_EQ(config.validate(), "payload.erasure.repair_max_attempts must be in [1, 255], got " +
                                     std::to_string(attempts));
    EXPECT_THROW(run_experiment(config, small_trace()), std::invalid_argument);
  }
}

// A cache of capacity 0 would hold every object it is given.
TEST(ExperimentValidate, RejectsZeroCacheCapacity) {
  ExperimentConfig carp = small_config(Scheme::kCarp);
  carp.baseline_cache_capacity = 0;
  carp.adc.caching_table_size = 0;
  EXPECT_EQ(carp.validate(),
            "baseline_cache_capacity and adc.caching_table_size are both 0: a carp proxy needs "
            "a cache of at least 1 object");
  EXPECT_THROW(run_experiment(carp, small_trace()), std::invalid_argument);
  carp.baseline_cache_capacity = 1;
  EXPECT_EQ(carp.validate(), "");

  ExperimentConfig adc = small_config(Scheme::kAdc);
  adc.adc.caching_table_size = 0;  // selective caching: no caching table
  EXPECT_EQ(adc.validate(), "");
  adc.adc.selective_caching = false;
  EXPECT_EQ(adc.validate(),
            "adc.caching_table_size must be at least 1 with adc.selective_caching off");
  EXPECT_THROW(run_experiment(adc, small_trace()), std::invalid_argument);
}

TEST(ExperimentValidate, RejectsEmptyDeploymentAndShortLoadFactors) {
  ExperimentConfig empty = small_config(Scheme::kAdc);
  empty.proxies = 0;
  EXPECT_NE(empty.validate(), "");
  ExperimentConfig carp = small_config(Scheme::kCarp);
  carp.carp_load_factors = {1.0, 0.5};
  EXPECT_NE(carp.validate(), "");
  carp.carp_load_factors.push_back(1.0);
  EXPECT_EQ(carp.validate(), "");
}

}  // namespace
}  // namespace adc::driver
