#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "util/rng.h"

namespace adc::sim {
namespace {

TEST(MovingAverage, EmptyIsZero) {
  MovingAverage ma(5);
  EXPECT_EQ(ma.value(), 0.0);
  EXPECT_EQ(ma.count(), 0u);
}

TEST(MovingAverage, AveragesWithinWindow) {
  MovingAverage ma(5);
  ma.add(1.0);
  ma.add(2.0);
  ma.add(3.0);
  EXPECT_DOUBLE_EQ(ma.value(), 2.0);
  EXPECT_EQ(ma.count(), 3u);
}

TEST(MovingAverage, OldValuesFallOut) {
  MovingAverage ma(3);
  for (double v : {10.0, 20.0, 30.0, 40.0}) ma.add(v);
  EXPECT_DOUBLE_EQ(ma.value(), 30.0);  // (20+30+40)/3
  EXPECT_EQ(ma.count(), 3u);
}

TEST(MovingAverage, WindowOfOneTracksLast) {
  MovingAverage ma(1);
  ma.add(5.0);
  ma.add(9.0);
  EXPECT_DOUBLE_EQ(ma.value(), 9.0);
}

// The ring must reproduce a deque-based window add for add: the same sum,
// added then subtracted in the same order, so the series stay bit-identical.
TEST(MovingAverage, RingMatchesDequeWindowAcrossWraps) {
  for (const std::size_t window : {1u, 3u, 7u}) {
    MovingAverage ma(window);
    std::deque<double> values;
    double sum = 0.0;
    util::Rng rng(window);
    for (int i = 0; i < 60; ++i) {
      const double v = rng.uniform() * 1000.0 + 0.1;
      ma.add(v);
      values.push_back(v);
      sum += v;
      if (values.size() > window) {
        sum -= values.front();
        values.pop_front();
      }
      ASSERT_EQ(ma.count(), values.size()) << window << " " << i;
      ASSERT_EQ(ma.value(), sum / static_cast<double>(values.size())) << window << " " << i;
    }
  }
}

TEST(Metrics, SummaryAccumulates) {
  MetricsCollector metrics(100, 0);
  metrics.on_request_completed(true, 4, 10);
  metrics.on_request_completed(false, 6, 30);
  const auto& s = metrics.summary();
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.total_hops, 10u);
  EXPECT_EQ(s.total_latency, 40);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(s.avg_hops(), 5.0);
  EXPECT_DOUBLE_EQ(s.avg_latency(), 20.0);
}

TEST(Metrics, EmptySummaryRatesAreZero) {
  const MetricsSummary s;
  EXPECT_EQ(s.hit_rate(), 0.0);
  EXPECT_EQ(s.avg_hops(), 0.0);
  EXPECT_EQ(s.avg_latency(), 0.0);
}

TEST(Metrics, SeriesSamplesAtStride) {
  MetricsCollector metrics(10, 3);
  for (int i = 0; i < 10; ++i) metrics.on_request_completed(i % 2 == 0, 5, 1);
  // Samples at 3, 6, 9 completed requests.
  ASSERT_EQ(metrics.series().size(), 3u);
  EXPECT_EQ(metrics.series()[0].requests, 3u);
  EXPECT_EQ(metrics.series()[1].requests, 6u);
  EXPECT_EQ(metrics.series()[2].requests, 9u);
}

TEST(Metrics, SeriesDisabledWithZeroStride) {
  MetricsCollector metrics(10, 0);
  for (int i = 0; i < 10; ++i) metrics.on_request_completed(true, 1, 1);
  EXPECT_TRUE(metrics.series().empty());
}

TEST(Metrics, MovingHitRateReflectsWindow) {
  MetricsCollector metrics(4, 0);
  for (int i = 0; i < 4; ++i) metrics.on_request_completed(false, 1, 1);
  EXPECT_DOUBLE_EQ(metrics.moving_hit_rate(), 0.0);
  for (int i = 0; i < 4; ++i) metrics.on_request_completed(true, 1, 1);
  EXPECT_DOUBLE_EQ(metrics.moving_hit_rate(), 1.0);  // window fully displaced
}

// Hop counts: small non-negative integers, as MetricsCollector's hop
// histogram records them.
TEST(IntHistogram, EmptyState) {
  const PercentileTracker hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.percentile(0.5), 0);
  EXPECT_EQ(hist.max_seen(), 0);
  EXPECT_EQ(hist.mean(), 0.0);
}

TEST(IntHistogram, CountsAndMean) {
  PercentileTracker hist;
  for (int v : {2, 2, 4, 8}) hist.add(v);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.percentile(0.25), 2);
  EXPECT_EQ(hist.percentile(0.5), 2);
  EXPECT_EQ(hist.percentile(0.75), 4);
  EXPECT_DOUBLE_EQ(hist.mean(), 4.0);
  EXPECT_EQ(hist.max_seen(), 8);
}

TEST(IntHistogram, Percentiles) {
  PercentileTracker hist;
  for (int v = 1; v <= 100; ++v) hist.add(v);  // uniform 1..100
  EXPECT_EQ(hist.percentile(0.0), 1);
  EXPECT_EQ(hist.percentile(0.5), 50);
  EXPECT_EQ(hist.percentile(0.95), 95);
  EXPECT_EQ(hist.percentile(1.0), 100);
}

TEST(IntHistogram, SingleValue) {
  PercentileTracker hist;
  hist.add(7);
  EXPECT_EQ(hist.percentile(0.01), 7);
  EXPECT_EQ(hist.percentile(0.99), 7);
}

// Values past the dense counts are kept exactly.
TEST(IntHistogram, OverflowBucket) {
  PercentileTracker hist;
  hist.add(100'000);
  hist.add(200'000);
  EXPECT_EQ(hist.max_seen(), 200'000);
  EXPECT_EQ(hist.percentile(0.5), 100'000);
  EXPECT_DOUBLE_EQ(hist.mean(), 150'000.0);
}

TEST(Metrics, HopHistogramTracksRequests) {
  MetricsCollector metrics(10, 0);
  metrics.on_request_completed(true, 2, 1);
  metrics.on_request_completed(false, 6, 1);
  metrics.on_request_completed(false, 6, 1);
  EXPECT_EQ(metrics.hop_histogram().count(), 3u);
  EXPECT_EQ(metrics.hop_histogram().percentile(0.0), 2);
  EXPECT_EQ(metrics.hop_histogram().percentile(0.34), 6);  // rank 2 of 3
  EXPECT_EQ(metrics.hop_histogram().percentile(0.5), 6);
}

TEST(PercentileTracker, EmptyIsZero) {
  PercentileTracker tracker;
  EXPECT_EQ(tracker.percentile(0.5), 0.0);
  EXPECT_EQ(tracker.count(), 0u);
}

TEST(PercentileTracker, NearestRankMatchesDefinition) {
  PercentileTracker tracker;
  for (int v = 1; v <= 100; ++v) tracker.add(static_cast<double>(v));
  EXPECT_EQ(tracker.percentile(0.0), 1.0);
  EXPECT_EQ(tracker.percentile(0.50), 50.0);
  EXPECT_EQ(tracker.percentile(0.95), 95.0);
  EXPECT_EQ(tracker.percentile(0.99), 99.0);
  EXPECT_EQ(tracker.percentile(1.0), 100.0);
}

TEST(PercentileTracker, OrderIndependentBelowCap) {
  PercentileTracker ascending;
  PercentileTracker descending;
  PercentileTracker interleaved;
  for (int v = 0; v < 1000; ++v) {
    ascending.add(static_cast<double>(v));
    descending.add(static_cast<double>(999 - v));
    interleaved.add(static_cast<double>((v * 7919) % 1000));  // a permutation
  }
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(ascending.percentile(q), descending.percentile(q)) << q;
    EXPECT_EQ(ascending.percentile(q), interleaved.percentile(q)) << q;
  }
}

TEST(PercentileTracker, SingleSampleAnswersEveryQuantile) {
  PercentileTracker tracker;
  tracker.add(7.0);
  // With one sample every rank clamps to it — tails included.
  for (const double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(tracker.percentile(q), 7.0) << q;
  }
}

TEST(PercentileTracker, TailQuantilesBelowHundredSamplesHitTheMaximum) {
  // Nearest-rank with n < 100: ceil(0.99 * n) == n, so p99 and p99.9 must
  // return the maximum, never interpolate past it or fall a rank short.
  for (const int n : {2, 10, 50, 99}) {
    PercentileTracker tracker;
    for (int v = 1; v <= n; ++v) tracker.add(static_cast<double>(v));
    EXPECT_EQ(tracker.percentile(0.99), static_cast<double>(n)) << n;
    EXPECT_EQ(tracker.percentile(0.999), static_cast<double>(n)) << n;
  }
  // At exactly n == 100, p99 steps off the maximum onto rank 99.
  PercentileTracker hundred;
  for (int v = 1; v <= 100; ++v) hundred.add(static_cast<double>(v));
  EXPECT_EQ(hundred.percentile(0.99), 99.0);
  EXPECT_EQ(hundred.percentile(0.999), 100.0);
}

TEST(PercentileTracker, TiedSamplesKeepNearestRankSemantics) {
  PercentileTracker tracker;
  tracker.add(1.0);
  tracker.add(1.0);
  tracker.add(1.0);
  tracker.add(5.0);
  // Ranks 1..3 are the tie; only the top rank sees the outlier.
  EXPECT_EQ(tracker.percentile(0.50), 1.0);
  EXPECT_EQ(tracker.percentile(0.75), 1.0);
  EXPECT_EQ(tracker.percentile(0.99), 5.0);
  EXPECT_EQ(tracker.percentile(1.0), 5.0);
}

/// What the tracker must answer: the nearest rank over every sample,
/// read off a sorted copy.
std::int64_t sorted_percentile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

const std::vector<double> kQuantiles = {0.0, 0.001, 0.25, 0.5, 0.75, 0.9,
                                        0.95, 0.99, 0.999, 0.9999, 1.0};

constexpr auto kDense = static_cast<std::int64_t>(PercentileTracker::kDenseLimit);

// Past 2^21 samples, where a store of samples capped at 2^20 would have
// thinned them, every percentile is still the exact nearest rank, and two
// trackers fed the same sequence agree.
TEST(PercentileTracker, DecimationBoundsMemoryAndStaysDeterministic) {
  PercentileTracker a;
  PercentileTracker b;
  std::vector<std::int64_t> all;
  const std::size_t n = (std::size_t{1} << 21) + 4097;
  all.reserve(n);
  util::Rng rng(2021);
  for (std::size_t i = 0; i < n; ++i) {
    // Mostly tied latencies in the dense range, one in 512 far above it.
    const auto v = static_cast<std::int64_t>(i % 512 == 0 ? kDense + rng.below(1'000'000)
                                                          : rng.below(977));
    a.add(v);
    b.add(v);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(a.count(), n);
  for (const double q : kQuantiles) {
    EXPECT_EQ(a.percentile(q), sorted_percentile(all, q)) << q;
    EXPECT_EQ(a.percentile(q), b.percentile(q)) << q;
  }
  EXPECT_EQ(a.max_seen(), all.back());
}

// Repeated queries between adds answer exactly what a sort of every sample
// answers, in any query order.
TEST(PercentileTracker, SelectionMatchesSortedReference) {
  const std::vector<std::vector<double>> sequences = {
      {0.0, 0.5, 0.95, 0.99, 0.999, 1.0},
      {1.0, 0.999, 0.99, 0.95, 0.5, 0.0},
      {0.99, 0.99, 0.5, 0.5, 0.999, 0.0, 0.0, 0.95, 1.0, 1.0},
  };
  for (const std::int64_t spread : {std::int64_t{300}, 3 * kDense}) {
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      PercentileTracker tracker;
      std::vector<std::int64_t> all;
      util::Rng rng(static_cast<std::uint64_t>(spread) + s);
      for (int i = 1; i <= 5000; ++i) {
        // Integral values with many ties, as the simulator records them;
        // the wide spread sends two thirds of them to the overflow list.
        const auto v = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(spread)));
        tracker.add(v);
        all.push_back(v);
        if (i % 97 != 0) continue;
        std::vector<std::int64_t> sorted = all;
        std::sort(sorted.begin(), sorted.end());
        for (int repeat = 0; repeat < 2; ++repeat) {
          for (const double q : sequences[s]) {
            ASSERT_EQ(tracker.percentile(q), sorted_percentile(sorted, q))
                << "spread " << spread << " sequence " << s << " sample " << i << " q " << q;
          }
        }
      }
    }
  }
}

TEST(PercentileTracker, ValuesAtOrAboveTheDenseLimitAreExact) {
  PercentileTracker tracker;
  for (const std::int64_t v : {kDense + 5, kDense, std::int64_t{1} << 40, kDense + 5}) {
    tracker.add(v);
  }
  EXPECT_EQ(tracker.percentile(0.0), kDense);
  EXPECT_EQ(tracker.percentile(0.5), kDense + 5);
  EXPECT_EQ(tracker.percentile(0.75), kDense + 5);
  EXPECT_EQ(tracker.percentile(1.0), std::int64_t{1} << 40);
  EXPECT_EQ(tracker.max_seen(), std::int64_t{1} << 40);
}

TEST(PercentileTracker, NegativeValuesTakeTheOverflowPath) {
  PercentileTracker tracker;
  for (const std::int64_t v : {-3, -1, -3, -100}) tracker.add(v);
  EXPECT_EQ(tracker.percentile(0.0), -100);
  EXPECT_EQ(tracker.percentile(0.5), -3);
  EXPECT_EQ(tracker.percentile(0.75), -3);
  EXPECT_EQ(tracker.max_seen(), -1);
  EXPECT_DOUBLE_EQ(tracker.mean(), -107.0 / 4.0);
}

// Negative, dense and large values in one tracker: ranks run across both
// boundaries of the dense range.
TEST(PercentileTracker, MixStraddlingTheDenseBoundariesMatchesSortedReference) {
  PercentileTracker tracker;
  std::vector<std::int64_t> all;
  util::Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    // Half around 0, half around kDense.
    const auto v = static_cast<std::int64_t>(rng.below(64)) - 32 + (i % 2 == 0 ? 0 : kDense);
    tracker.add(v);
    all.push_back(v);
  }
  for (const std::int64_t edge : {std::int64_t{-1}, std::int64_t{0}, kDense - 1, kDense}) {
    tracker.add(edge);
    all.push_back(edge);
  }
  std::sort(all.begin(), all.end());
  ASSERT_LT(all.front(), 0);
  ASSERT_GE(all.back(), kDense);
  for (std::size_t rank = 1; rank <= all.size(); rank += 37) {
    const double q = static_cast<double>(rank) / static_cast<double>(all.size());
    EXPECT_EQ(tracker.percentile(q), sorted_percentile(all, q)) << rank;
  }
  for (const double q : kQuantiles) EXPECT_EQ(tracker.percentile(q), sorted_percentile(all, q));
  double sum = 0.0;
  for (const std::int64_t v : all) sum += static_cast<double>(v);
  EXPECT_DOUBLE_EQ(tracker.mean(), sum / static_cast<double>(all.size()));
}

// Above the 2^20 samples a capped store once kept, arrival order still
// cannot move a percentile.
TEST(PercentileTracker, OrderIndependentAboveTheOldCap) {
  const std::size_t n = (std::size_t{1} << 20) + 999;
  PercentileTracker ascending;
  PercentileTracker descending;
  PercentileTracker shuffled;
  const auto value = [](std::size_t i) {
    // Three values in four in the dense range, the rest above it.
    return static_cast<std::int64_t>(i % 4 == 3 ? (i * 7) % 50'000 + kDense : (i * 13) % 2000);
  };
  for (std::size_t i = 0; i < n; ++i) {
    ascending.add(value(i));
    descending.add(value(n - 1 - i));
    shuffled.add(value((i * 7919) % n));  // 7919 is prime and n is not its multiple
  }
  for (const double q : kQuantiles) {
    EXPECT_EQ(ascending.percentile(q), descending.percentile(q)) << q;
    EXPECT_EQ(ascending.percentile(q), shuffled.percentile(q)) << q;
  }
  EXPECT_EQ(ascending.mean(), shuffled.mean());
}

TEST(PercentileTracker, ClearResetsEverything) {
  PercentileTracker tracker;
  for (int v = 0; v < 100; ++v) tracker.add(v);
  tracker.add(-7);
  tracker.add(kDense * 3);
  tracker.clear();
  EXPECT_EQ(tracker.count(), 0u);
  EXPECT_EQ(tracker.percentile(0.5), 0);
  EXPECT_EQ(tracker.max_seen(), 0);
  EXPECT_EQ(tracker.mean(), 0.0);
  // Reused after a clear, it counts only the new samples.
  tracker.add(kDense + 1);
  tracker.add(3);
  EXPECT_EQ(tracker.count(), 2u);
  EXPECT_EQ(tracker.percentile(0.0), 3);
  EXPECT_EQ(tracker.percentile(1.0), kDense + 1);
}

TEST(Fairness, RatioIsMaxOverMin) {
  EXPECT_DOUBLE_EQ(MetricsSummary::fairness_ratio({100, 100, 100}), 1.0);
  EXPECT_DOUBLE_EQ(MetricsSummary::fairness_ratio({50, 100, 200}), 4.0);
  EXPECT_DOUBLE_EQ(MetricsSummary::fairness_ratio({7}), 1.0);
}

TEST(Fairness, EdgeCases) {
  EXPECT_DOUBLE_EQ(MetricsSummary::fairness_ratio({}), 0.0);
  // Nobody served anything: trivially balanced, not infinite.
  EXPECT_DOUBLE_EQ(MetricsSummary::fairness_ratio({0, 0, 0}), 1.0);
  // A starved member clamps the denominator to 1 instead of dividing by 0.
  EXPECT_DOUBLE_EQ(MetricsSummary::fairness_ratio({0, 500}), 500.0);
}

TEST(Fairness, MaxShare) {
  EXPECT_DOUBLE_EQ(MetricsSummary::max_share({}), 0.0);
  EXPECT_DOUBLE_EQ(MetricsSummary::max_share({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(MetricsSummary::max_share({25, 25, 50}), 0.5);
  EXPECT_DOUBLE_EQ(MetricsSummary::max_share({10}), 1.0);
}

TEST(Fairness, SummaryAccessorsUseOwnerCounters) {
  MetricsSummary summary;
  EXPECT_DOUBLE_EQ(summary.request_fairness(), 0.0);  // no owners recorded
  summary.owner_requests = {10, 20, 40};
  summary.owner_hits = {5, 5, 5};
  EXPECT_DOUBLE_EQ(summary.request_fairness(), 4.0);
  EXPECT_DOUBLE_EQ(summary.hit_fairness(), 1.0);
}

TEST(PercentileTracker, TailPercentilesNearestRank) {
  PercentileTracker tracker;
  for (int v = 1; v <= 1000; ++v) tracker.add(v);
  // Nearest-rank on 1000 samples: p99 = ceil(0.99*1000) = 990th value.
  EXPECT_EQ(tracker.percentile(0.99), 990.0);
  EXPECT_EQ(tracker.percentile(0.999), 999.0);
}

TEST(MetricsCollector, LatencyTrackerFollowsCompletions) {
  MetricsCollector metrics(10, 0);
  metrics.on_request_completed(true, 2, 5);
  metrics.on_request_completed(false, 3, 15);
  metrics.on_request_completed(true, 4, 10);
  EXPECT_EQ(metrics.latency_tracker().count(), 3u);
  EXPECT_EQ(metrics.latency_tracker().percentile(0.5), 10.0);
}

}  // namespace
}  // namespace adc::sim
