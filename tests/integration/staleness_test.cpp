// End-to-end staleness accounting: with origin-side updates enabled, hits
// that serve outdated data are counted, monotonically in the update rate,
// and never when versioning is off.  Every scheme and every mode that
// keeps versions in a different place runs the same checks, and the exact
// stale-hit count of each at one update interval is pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>

#include "driver/experiment.h"
#include "workload/polygraph.h"

namespace adc {
namespace {

workload::Trace staleness_trace() {
  workload::PolygraphConfig config;
  config.fill_requests = 1000;
  config.phase2_requests = 4000;
  config.phase3_requests = 3000;
  config.hot_set_size = 100;
  config.seed = 51;
  return workload::generate_polygraph_trace(config);
}

driver::ExperimentConfig config_with_updates(driver::Scheme scheme, SimTime interval) {
  driver::ExperimentConfig config;
  config.scheme = scheme;
  config.proxies = 3;
  config.adc.single_table_size = 200;
  config.adc.multiple_table_size = 200;
  config.adc.caching_table_size = 100;
  config.sample_every = 0;
  config.object_update_interval = interval;
  return config;
}

/// The run's config at a mean update interval (0 = versioning off).
using ConfigAt = std::function<driver::ExperimentConfig(SimTime interval)>;

void expect_no_stale_hits_without_updates(const ConfigAt& at) {
  const auto result = driver::run_experiment(at(0), staleness_trace());
  EXPECT_EQ(result.summary.stale_hits, 0u);
  EXPECT_EQ(result.summary.stale_rate(), 0.0);
}

void expect_updates_produce_stale_hits(const ConfigAt& at) {
  // Aggressive churn: objects update every ~2k time units while the run
  // spans hundreds of thousands.
  const auto result = driver::run_experiment(at(2000), staleness_trace());
  EXPECT_GT(result.summary.stale_hits, 0u);
  EXPECT_LE(result.summary.stale_hits, result.summary.hits);
  EXPECT_GT(result.summary.stale_rate(), 0.0);
  EXPECT_LE(result.summary.stale_rate(), 1.0);
}

void expect_faster_churn_more_staleness(const ConfigAt& at) {
  const auto trace = staleness_trace();
  const auto slow = driver::run_experiment(at(100000), trace);
  const auto fast = driver::run_experiment(at(2000), trace);
  EXPECT_GT(fast.summary.stale_rate(), slow.summary.stale_rate());
}

void expect_versioning_neutral(const ConfigAt& at) {
  // Versioning is pure measurement: the request routing must be
  // bit-identical with and without it.
  const auto trace = staleness_trace();
  const auto off = driver::run_experiment(at(0), trace);
  const auto on = driver::run_experiment(at(2000), trace);
  EXPECT_EQ(off.summary.hits, on.summary.hits);
  EXPECT_EQ(off.summary.total_hops, on.summary.total_hops);
  EXPECT_EQ(off.origin_served, on.origin_served);
}

class StalenessTest : public ::testing::TestWithParam<driver::Scheme> {
 protected:
  ConfigAt at() const {
    const driver::Scheme scheme = GetParam();
    return [scheme](SimTime interval) { return config_with_updates(scheme, interval); };
  }
};

TEST_P(StalenessTest, NoUpdatesNoStaleHits) { expect_no_stale_hits_without_updates(at()); }

TEST_P(StalenessTest, UpdatesProduceStaleHits) { expect_updates_produce_stale_hits(at()); }

TEST_P(StalenessTest, FasterChurnMeansMoreStaleness) {
  expect_faster_churn_more_staleness(at());
}

TEST_P(StalenessTest, VersioningDoesNotChangeHitsOrHops) { expect_versioning_neutral(at()); }

INSTANTIATE_TEST_SUITE_P(Schemes, StalenessTest,
                         ::testing::Values(driver::Scheme::kAdc, driver::Scheme::kCarp,
                                           driver::Scheme::kHierarchical,
                                           driver::Scheme::kSoap),
                         [](const auto& info) {
                           return std::string(driver::scheme_name(info.param));
                         });

/// A scheme run in a mode that stores versions somewhere the plain
/// scheme does not: ADC's admit-all LRU, a CARP entry proxy's cache, a
/// byte-budgeted GDSF cache, the coordinator's backends.
struct Mode {
  const char* name;
  driver::Scheme scheme;
  void (*enable)(driver::ExperimentConfig&);
  std::uint64_t stale_hits_at_2000;  // pinned, see StaleHitPins
};

const Mode kModes[] = {
    {"adc_lru_all", driver::Scheme::kAdc,
     [](driver::ExperimentConfig& c) { c.adc.selective_caching = false; }, 3985},
    {"carp_entry_caching", driver::Scheme::kCarp,
     [](driver::ExperimentConfig& c) { c.entry_caching = true; }, 4405},
    {"carp_payload_gdsf", driver::Scheme::kCarp,
     [](driver::ExperimentConfig& c) {
       c.payload.enabled = true;
       c.payload.byte_budget = 1 << 20;
       c.baseline_policy = cache::Policy::kGdsf;
     },
     4821},
    {"coordinator", driver::Scheme::kCoordinator, [](driver::ExperimentConfig&) {}, 4109},
};

// Names the parameter in test listings (its raw bytes hold addresses).
void PrintTo(const Mode& mode, std::ostream* os) { *os << mode.name; }

class StalenessModeTest : public ::testing::TestWithParam<Mode> {
 protected:
  ConfigAt at() const {
    const Mode mode = GetParam();
    return [mode](SimTime interval) {
      driver::ExperimentConfig config = config_with_updates(mode.scheme, interval);
      mode.enable(config);
      return config;
    };
  }
};

TEST_P(StalenessModeTest, NoUpdatesNoStaleHits) { expect_no_stale_hits_without_updates(at()); }

TEST_P(StalenessModeTest, UpdatesProduceStaleHits) { expect_updates_produce_stale_hits(at()); }

TEST_P(StalenessModeTest, FasterChurnMeansMoreStaleness) {
  expect_faster_churn_more_staleness(at());
}

TEST_P(StalenessModeTest, VersioningDoesNotChangeHitsOrHops) {
  expect_versioning_neutral(at());
}

INSTANTIATE_TEST_SUITE_P(Modes, StalenessModeTest, ::testing::ValuesIn(kModes),
                         [](const auto& info) { return std::string(info.param.name); });

// The exact stale hits of every scheme and mode at interval 2000, as the
// proxies counted them when each kept versions in a map beside its cache.
TEST(StaleHitPins, EverySchemeAndModeAtInterval2000) {
  const auto trace = staleness_trace();
  const auto stale_hits = [&trace](const driver::ExperimentConfig& config) {
    return driver::run_experiment(config, trace).summary.stale_hits;
  };
  const std::pair<driver::Scheme, std::uint64_t> schemes[] = {
      {driver::Scheme::kAdc, 4879},
      {driver::Scheme::kCarp, 4924},
      {driver::Scheme::kHierarchical, 4351},
      {driver::Scheme::kSoap, 4359},
  };
  for (const auto& [scheme, pinned] : schemes) {
    EXPECT_EQ(stale_hits(config_with_updates(scheme, 2000)), pinned)
        << driver::scheme_name(scheme);
  }
  for (const Mode& mode : kModes) {
    driver::ExperimentConfig config = config_with_updates(mode.scheme, 2000);
    mode.enable(config);
    EXPECT_EQ(stale_hits(config), mode.stale_hits_at_2000) << mode.name;
  }
}

}  // namespace
}  // namespace adc
