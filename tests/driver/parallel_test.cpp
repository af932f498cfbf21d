// Determinism regression tests for the parallel experiment engine.
//
// run_experiment() is documented as deterministic in (config, trace), and
// every deployment is self-contained (per-run simulator, per-run RNG) —
// so fanning a sweep or seed replication across threads must produce
// bit-identical metrics to the serial path, excluding only wall_seconds
// (host time).  These tests are the contract that makes --workers > 1
// trustworthy; run them under -DADC_SANITIZE=thread to also prove the
// engine race-free.
#include "driver/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "driver/sweep.h"
#include "workload/polygraph.h"

namespace adc::driver {
namespace {

workload::Trace tiny_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 800;
  config.phase2_requests = 1200;
  config.phase3_requests = 1000;
  config.hot_set_size = 100;
  config.seed = 5;
  return workload::generate_polygraph_trace(config);
}

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.proxies = 3;
  config.adc.single_table_size = 150;
  config.adc.multiple_table_size = 150;
  config.adc.caching_table_size = 80;
  config.sample_every = 500;
  return config;
}

// Everything in an ExperimentResult except wall_seconds (host wall-clock,
// the one legitimately nondeterministic field).
void expect_identical_results(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.summary.completed, b.summary.completed);
  EXPECT_EQ(a.summary.hits, b.summary.hits);
  EXPECT_EQ(a.summary.stale_hits, b.summary.stale_hits);
  EXPECT_EQ(a.summary.total_hops, b.summary.total_hops);
  EXPECT_EQ(a.summary.total_forwards, b.summary.total_forwards);
  EXPECT_EQ(a.summary.total_latency, b.summary.total_latency);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.origin_served, b.origin_served);
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.hops_p50, b.hops_p50);
  EXPECT_EQ(a.hops_p95, b.hops_p95);
  EXPECT_EQ(a.hops_max, b.hops_max);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].requests, b.series[i].requests);
    EXPECT_EQ(a.series[i].hit_rate, b.series[i].hit_rate);
    EXPECT_EQ(a.series[i].hops, b.series[i].hops);
    EXPECT_EQ(a.series[i].latency, b.series[i].latency);
  }
  ASSERT_EQ(a.proxies.size(), b.proxies.size());
  for (std::size_t i = 0; i < a.proxies.size(); ++i) {
    EXPECT_EQ(a.proxies[i].name, b.proxies[i].name);
    EXPECT_EQ(a.proxies[i].requests_received, b.proxies[i].requests_received);
    EXPECT_EQ(a.proxies[i].local_hits, b.proxies[i].local_hits);
    EXPECT_EQ(a.proxies[i].cached_objects, b.proxies[i].cached_objects);
    EXPECT_EQ(a.proxies[i].table_entries, b.proxies[i].table_entries);
  }
}

TEST(ResolveWorkers, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_workers(0), 1);
}

TEST(ResolveWorkers, NegativeClampsToSerial) {
  EXPECT_EQ(resolve_workers(-4), 1);
}

TEST(ResolveWorkers, PositivePassesThrough) {
  EXPECT_EQ(resolve_workers(1), 1);
  EXPECT_EQ(resolve_workers(6), 6);
}

TEST(RunParallel, EmptyConfigListYieldsEmptyResults) {
  const auto trace = tiny_trace();
  EXPECT_TRUE(run_parallel({}, trace, 4).empty());
}

TEST(RunParallel, MatchesSerialBitForBit) {
  const auto trace = tiny_trace();
  std::vector<ExperimentConfig> configs;
  for (const std::size_t caching : {40u, 80u, 120u, 160u}) {
    for (const auto scheme : {Scheme::kAdc, Scheme::kCarp}) {
      ExperimentConfig config = base_config();
      config.scheme = scheme;
      config.adc.caching_table_size = caching;
      configs.push_back(config);
    }
  }
  const auto serial = run_parallel(configs, trace, 1);
  const auto parallel = run_parallel(configs, trace, 4);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expect_identical_results(serial[i], parallel[i]);
  }
}

TEST(RunParallel, FaultCountersAggregateIdenticallyAcrossWorkers) {
  // Each run owns its FaultyNetwork with a private RNG, so the injected
  // and resilience counters are part of the determinism contract too: a
  // chaos sweep fanned across threads must report the exact same fault
  // tallies as the serial replay, at every worker count.  Every scheme
  // runs, and each must resolve every request it issued although replies
  // arrive duplicated (an agent drops a reply it has no record for).
  const auto trace = tiny_trace();
  std::vector<ExperimentConfig> configs;
  for (const double loss : {0.01, 0.04}) {
    for (const auto scheme : {Scheme::kAdc, Scheme::kCarp, Scheme::kConsistent,
                              Scheme::kRendezvous, Scheme::kHierarchical,
                              Scheme::kCoordinator, Scheme::kSoap}) {
      ExperimentConfig config = base_config();
      config.scheme = scheme;
      config.fault_plan.drop_prob = loss;
      config.fault_plan.dup_prob = 0.02;
      config.request_timeout = 2000;
      configs.push_back(config);
    }
  }
  const auto serial = run_parallel(configs, trace, 1);
  const auto two = run_parallel(configs, trace, 2);
  const auto four = run_parallel(configs, trace, 4);
  ASSERT_EQ(serial.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(std::string(scheme_name(configs[i].scheme)) + " config " + std::to_string(i));
    EXPECT_EQ(serial[i].summary.completed + serial[i].summary.failed, trace.size());
    EXPECT_GT(serial[i].faults.duplicates, 0u);
  }
  for (const auto* fanned : {&two, &four}) {
    ASSERT_EQ(fanned->size(), configs.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("config " + std::to_string(i));
      const auto& a = serial[i].faults;
      const auto& b = (*fanned)[i].faults;
      EXPECT_EQ(a.drops_random, b.drops_random);
      EXPECT_EQ(a.drops_partition, b.drops_partition);
      EXPECT_EQ(a.drops_crash, b.drops_crash);
      EXPECT_EQ(a.duplicates, b.duplicates);
      EXPECT_EQ(a.delays, b.delays);
      EXPECT_EQ(a.timeouts, b.timeouts);
      EXPECT_EQ(a.entries_invalidated, b.entries_invalidated);
      EXPECT_GT(b.drops_random, 0u);  // the chaos actually fired
    }
  }
}

TEST(RunParallel, ResultsStayInSubmissionOrder) {
  const auto trace = tiny_trace();
  // Distinguishable runs: proxy counts differ, so each result reveals
  // which config produced it via the snapshot count.
  std::vector<ExperimentConfig> configs;
  for (const int proxies : {1, 2, 3, 4, 5}) {
    ExperimentConfig config = base_config();
    config.proxies = proxies;
    configs.push_back(config);
  }
  const auto results = run_parallel(configs, trace, 3);
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].proxies.size(), i + 1);
  }
}

TEST(SweepDeterminism, ParallelGridIsBitIdenticalToSerial) {
  const auto trace = tiny_trace();
  const std::vector<SweptTable> tables = {SweptTable::kCaching, SweptTable::kMultiple,
                                          SweptTable::kSingle};
  const std::vector<std::size_t> sizes = {50, 100, 150};
  const auto serial = run_table_sweep(base_config(), trace, tables, sizes, 1);
  const auto parallel = run_table_sweep(base_config(), trace, tables, sizes, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(serial[i].table, parallel[i].table);
    EXPECT_EQ(serial[i].size, parallel[i].size);
    // Bit-identical doubles, not near-equal: the parallel path must replay
    // the exact same simulation.  wall_seconds is excluded by design.
    EXPECT_EQ(serial[i].hit_rate, parallel[i].hit_rate);
    EXPECT_EQ(serial[i].avg_hops, parallel[i].avg_hops);
    EXPECT_EQ(serial[i].avg_latency, parallel[i].avg_latency);
  }
}

TEST(ReplicationDeterminism, SeedFanOutIsBitIdenticalToSerial) {
  const auto trace = tiny_trace();
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6};
  const auto serial = run_replicated(base_config(), trace, seeds, 1);
  const auto parallel = run_replicated(base_config(), trace, seeds, 4);
  ASSERT_EQ(serial.runs, seeds.size());
  ASSERT_EQ(parallel.runs, seeds.size());
  EXPECT_EQ(serial.hit_rate.mean, parallel.hit_rate.mean);
  EXPECT_EQ(serial.hit_rate.stddev, parallel.hit_rate.stddev);
  EXPECT_EQ(serial.hit_rate.ci95, parallel.hit_rate.ci95);
  EXPECT_EQ(serial.avg_hops.mean, parallel.avg_hops.mean);
  EXPECT_EQ(serial.avg_hops.stddev, parallel.avg_hops.stddev);
  EXPECT_EQ(serial.avg_hops.ci95, parallel.avg_hops.ci95);
  EXPECT_EQ(serial.avg_latency.mean, parallel.avg_latency.mean);
  EXPECT_EQ(serial.avg_latency.stddev, parallel.avg_latency.stddev);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    expect_identical_results(serial.results[i], parallel.results[i]);
  }
}

TEST(Replication, StatsAreInternallyConsistent) {
  const auto trace = tiny_trace();
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  const auto rep = run_replicated(base_config(), trace, seeds, 2);
  EXPECT_EQ(rep.runs, 5u);
  ASSERT_EQ(rep.results.size(), 5u);
  // Different seeds must actually vary the runs (entry-proxy choices and
  // random-walk targets differ) while the mean stays in the sample range.
  double lo = 1.0;
  double hi = 0.0;
  for (const auto& result : rep.results) {
    lo = std::min(lo, result.summary.hit_rate());
    hi = std::max(hi, result.summary.hit_rate());
  }
  EXPECT_GE(rep.hit_rate.mean, lo);
  EXPECT_LE(rep.hit_rate.mean, hi);
  EXPECT_GE(rep.hit_rate.stddev, 0.0);
  // ci95 = 1.96 * sd / sqrt(n) by construction.
  EXPECT_DOUBLE_EQ(rep.hit_rate.ci95,
                   1.96 * rep.hit_rate.stddev / std::sqrt(static_cast<double>(rep.runs)));
}

TEST(Replication, SingleSeedHasZeroSpread) {
  const auto trace = tiny_trace();
  const auto rep = run_replicated(base_config(), trace, {7}, 4);
  EXPECT_EQ(rep.runs, 1u);
  EXPECT_EQ(rep.hit_rate.stddev, 0.0);
  EXPECT_EQ(rep.hit_rate.ci95, 0.0);
  EXPECT_GT(rep.hit_rate.mean, 0.0);
}

TEST(Replication, NoSeedsYieldsEmptyResult) {
  const auto trace = tiny_trace();
  const auto rep = run_replicated(base_config(), trace, {}, 4);
  EXPECT_EQ(rep.runs, 0u);
  EXPECT_TRUE(rep.results.empty());
  EXPECT_EQ(rep.hit_rate.mean, 0.0);
}

}  // namespace
}  // namespace adc::driver
