#include "workload/polygraph.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

namespace adc::workload {
namespace {

PolygraphConfig small_config() {
  PolygraphConfig config;
  config.fill_requests = 5000;
  config.phase2_requests = 8000;
  config.phase3_requests = 7000;
  config.hot_set_size = 400;
  config.seed = 7;
  return config;
}

TEST(Polygraph, TotalLengthAndPhaseBoundaries) {
  const auto config = small_config();
  const Trace trace = generate_polygraph_trace(config);
  EXPECT_EQ(trace.size(), 5000u + 8000u + 7000u);
  EXPECT_EQ(trace.phases().fill_end, 5000u);
  EXPECT_EQ(trace.phases().phase2_end, 13000u);
}

TEST(Polygraph, FillPhaseIsMostlyUnique) {
  const auto config = small_config();
  const Trace trace = generate_polygraph_trace(config);
  const Trace fill = trace.slice(0, trace.phases().fill_end);
  const auto stats = fill.stats();
  // The fill phase repeats an earlier object 2% of the time.
  EXPECT_LT(stats.recurrence_rate, 0.05);
  EXPECT_GT(stats.unique_objects, 4700u);
}

TEST(Polygraph, PhaseThreeReplaysPhaseTwoExactly) {
  const auto config = small_config();
  const Trace trace = generate_polygraph_trace(config);
  const auto& phases = trace.phases();
  for (std::uint64_t i = 0; i < trace.size() - phases.phase2_end; ++i) {
    ASSERT_EQ(trace[phases.phase2_end + i], trace[phases.fill_end + i]) << "offset " << i;
  }
}

TEST(Polygraph, Phase3LongerThanPhase2IsClamped) {
  PolygraphConfig config = small_config();
  config.phase3_requests = 100000;  // longer than phase 2
  const Trace trace = generate_polygraph_trace(config);
  EXPECT_EQ(trace.size() - trace.phases().phase2_end, config.phase2_requests);
}

TEST(Polygraph, SameSeedSameTrace) {
  const Trace a = generate_polygraph_trace(small_config());
  const Trace b = generate_polygraph_trace(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::uint64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Polygraph, DifferentSeedsDiffer) {
  PolygraphConfig other = small_config();
  other.seed = 8;
  const Trace a = generate_polygraph_trace(small_config());
  const Trace b = generate_polygraph_trace(other);
  ASSERT_EQ(a.size(), b.size());
  std::uint64_t diffs = 0;
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++diffs;
  }
  EXPECT_GT(diffs, a.size() / 10);
}

TEST(Polygraph, ObjectIdsAreDenseFromOne) {
  const Trace trace = generate_polygraph_trace(small_config());
  ObjectId max_id = 0;
  std::unordered_set<ObjectId> seen;
  for (ObjectId id : trace.requests()) {
    ASSERT_GE(id, 1u);
    seen.insert(id);
    max_id = std::max(max_id, id);
  }
  // Dense: every id up to the max was requested at least once.
  EXPECT_EQ(seen.size(), max_id);
}

TEST(Polygraph, HotSetDrivesRecurrence) {
  const auto config = small_config();
  const Trace trace = generate_polygraph_trace(config);
  // Count phase-2 requests landing on the most popular object: with Zipf
  // concentration it must recur far above the uniform rate.
  const Trace phase2 = trace.slice(trace.phases().fill_end, trace.phases().phase2_end);
  std::map<ObjectId, int> counts;
  for (ObjectId id : phase2.requests()) ++counts[id];
  int top = 0;
  for (const auto& [id, count] : counts) top = std::max(top, count);
  EXPECT_GT(top, static_cast<int>(phase2.size() / config.hot_set_size) * 5);
}

TEST(Polygraph, ScaledConfigScalesEverything) {
  const auto scaled = PolygraphConfig::scaled(0.1);
  const auto full = PolygraphConfig::paper_scale();
  EXPECT_EQ(scaled.fill_requests, full.fill_requests / 10);
  EXPECT_EQ(scaled.phase2_requests, full.phase2_requests / 10);
  EXPECT_EQ(scaled.phase3_requests, full.phase3_requests / 10);
  EXPECT_EQ(scaled.hot_set_size, full.hot_set_size / 10);
}

TEST(Polygraph, ScaledNeverProducesZeroCounts) {
  const auto tiny = PolygraphConfig::scaled(1e-9);
  EXPECT_GE(tiny.fill_requests, 1u);
  EXPECT_GE(tiny.hot_set_size, 1u);
  const Trace trace = generate_polygraph_trace(tiny);
  EXPECT_GE(trace.size(), 3u);
}

TEST(Polygraph, PaperScaleMatchesReportedNumbers) {
  const auto config = PolygraphConfig::paper_scale();
  // "a set of almost 4 million requests ... Phase 1 with around 1.0
  // million ... Phase 2 with around 1.5 million".
  EXPECT_EQ(config.fill_requests, 1'000'000u);
  EXPECT_EQ(config.phase2_requests, 1'500'000u);
  const std::uint64_t total =
      config.fill_requests + config.phase2_requests + config.phase3_requests;
  EXPECT_NEAR(static_cast<double>(total), 3.99e6, 1e4);
}

TEST(Polygraph, OverallRecurrenceInPlausibleBand) {
  const Trace trace = generate_polygraph_trace(PolygraphConfig::scaled(0.02));
  const auto stats = trace.stats();
  // Fill (25%) is almost all new; phases 2+3 recur heavily: overall
  // recurrence must land well inside (0.4, 0.9).
  EXPECT_GT(stats.recurrence_rate, 0.4);
  EXPECT_LT(stats.recurrence_rate, 0.9);
}

}  // namespace
}  // namespace adc::workload
