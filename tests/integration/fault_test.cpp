// Fault-injection coverage: a proxy cold-restart mid-run must never break
// correctness (every request still completes and conserves) and the
// system must visibly lose and then relearn state.
#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "workload/polygraph.h"

namespace adc {
namespace {

workload::Trace fault_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 1000;
  config.phase2_requests = 5000;
  config.phase3_requests = 4000;
  config.hot_set_size = 120;
  config.seed = 31;
  return workload::generate_polygraph_trace(config);
}

driver::ExperimentConfig faulty_config(driver::Scheme scheme, std::uint64_t at,
                                       bool membership = false) {
  driver::ExperimentConfig config;
  config.scheme = scheme;
  config.proxies = 4;
  config.adc.single_table_size = 250;
  config.adc.multiple_table_size = 250;
  config.adc.caching_table_size = 120;
  config.ma_window = 250;
  config.sample_every = 250;
  config.fault.at_completed = at;
  config.fault.proxy_index = 1;
  config.membership.swim.enabled = membership;
  return config;
}

void expect_run_completes_and_conserves(driver::Scheme scheme, bool membership) {
  const auto trace = fault_trace();
  const auto result =
      driver::run_experiment(faulty_config(scheme, trace.size() / 2, membership), trace);
  EXPECT_EQ(result.summary.completed, trace.size());
  EXPECT_EQ(result.summary.hits + result.origin_served, trace.size());
}

void expect_fault_costs_hits(driver::Scheme scheme, bool membership) {
  const auto trace = fault_trace();
  driver::ExperimentConfig clean = faulty_config(scheme, trace.size() / 2, membership);
  clean.fault.at_completed = 0;
  const auto faulty =
      driver::run_experiment(faulty_config(scheme, trace.size() / 2, membership), trace);
  const auto baseline = driver::run_experiment(clean, trace);
  EXPECT_LT(faulty.summary.hits, baseline.summary.hits);
}

std::string scheme_test_name(const ::testing::TestParamInfo<driver::Scheme>& info) {
  return std::string(driver::scheme_name(info.param));
}

class FaultTest : public ::testing::TestWithParam<driver::Scheme> {};

TEST_P(FaultTest, RunStillCompletesAndConserves) {
  expect_run_completes_and_conserves(GetParam(), /*membership=*/false);
}

TEST_P(FaultTest, FaultCostsHitsComparedToCleanRun) {
  expect_fault_costs_hits(GetParam(), /*membership=*/false);
}

INSTANTIATE_TEST_SUITE_P(Schemes, FaultTest,
                         ::testing::Values(driver::Scheme::kAdc, driver::Scheme::kCarp,
                                           driver::Scheme::kConsistent,
                                           driver::Scheme::kRendezvous,
                                           driver::Scheme::kHierarchical,
                                           driver::Scheme::kCoordinator,
                                           driver::Scheme::kSoap),
                         scheme_test_name);

// The same fault with membership on: the victim is wrapped in a
// MemberAgent, so the flush reaches the agent through the wrapper.
class MemberFaultTest : public ::testing::TestWithParam<driver::Scheme> {};

TEST_P(MemberFaultTest, RunStillCompletesAndConserves) {
  expect_run_completes_and_conserves(GetParam(), /*membership=*/true);
}

TEST_P(MemberFaultTest, FaultCostsHitsComparedToCleanRun) {
  expect_fault_costs_hits(GetParam(), /*membership=*/true);
}

INSTANTIATE_TEST_SUITE_P(Schemes, MemberFaultTest,
                         ::testing::Values(driver::Scheme::kAdc, driver::Scheme::kCarp,
                                           driver::Scheme::kConsistent,
                                           driver::Scheme::kRendezvous),
                         scheme_test_name);

TEST(FaultRecovery, AdcDipsAgainstPairedCleanRunThenRecovers) {
  // ADC replicates hot objects, so losing one proxy's state produces only
  // a shallow dip — visible against the *paired* clean run (identical
  // workload and seed, no fault), and gone again by the end of the trace.
  const auto trace = fault_trace();
  const std::uint64_t at = trace.size() / 2;
  const auto faulty = driver::run_experiment(faulty_config(driver::Scheme::kAdc, at), trace);
  driver::ExperimentConfig clean_config = faulty_config(driver::Scheme::kAdc, at);
  clean_config.fault.at_completed = 0;
  const auto clean = driver::run_experiment(clean_config, trace);

  const auto mean_between = [](const driver::ExperimentResult& result, std::uint64_t begin,
                               std::uint64_t end) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& point : result.series) {
      if (point.requests > begin && point.requests <= end) {
        sum += point.hit_rate;
        ++n;
      }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };

  const std::uint64_t w = 2000;
  const double dip_faulty = mean_between(faulty, at, at + w);
  const double dip_clean = mean_between(clean, at, at + w);
  EXPECT_LT(dip_faulty, dip_clean);  // the paired dip

  const double end_faulty = mean_between(faulty, trace.size() - w, trace.size());
  const double end_clean = mean_between(clean, trace.size() - w, trace.size());
  EXPECT_NEAR(end_faulty, end_clean, 0.03);  // recovered by the end
}

TEST(FaultRecovery, FlushedAdcProxyRelearns) {
  const auto trace = fault_trace();
  const auto result =
      driver::run_experiment(faulty_config(driver::Scheme::kAdc, trace.size() / 2), trace);
  // By the end of the run the flushed proxy participates again: it holds
  // cached objects and serves local hits.
  const auto& victim = result.proxies[1];
  EXPECT_GT(victim.cached_objects, 0u);
  EXPECT_GT(victim.table_entries, 0u);
}

TEST(FaultRecovery, FaultAfterLastRequestNeverFires) {
  const auto trace = fault_trace();
  driver::ExperimentConfig config = faulty_config(driver::Scheme::kAdc, trace.size() + 100);
  const auto with_unfired = driver::run_experiment(config, trace);
  config.fault.at_completed = 0;
  const auto clean = driver::run_experiment(config, trace);
  EXPECT_EQ(with_unfired.summary.hits, clean.summary.hits);
}

}  // namespace
}  // namespace adc
