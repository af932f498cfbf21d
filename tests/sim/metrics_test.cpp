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

TEST(IntHistogram, EmptyState) {
  const IntHistogram hist;
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_EQ(hist.percentile(0.5), -1);
  EXPECT_EQ(hist.max_seen(), -1);
  EXPECT_EQ(hist.mean(), 0.0);
}

TEST(IntHistogram, CountsAndMean) {
  IntHistogram hist;
  for (int v : {2, 2, 4, 8}) hist.add(v);
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.count_of(2), 2u);
  EXPECT_EQ(hist.count_of(4), 1u);
  EXPECT_EQ(hist.count_of(3), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 4.0);
  EXPECT_EQ(hist.max_seen(), 8);
}

TEST(IntHistogram, Percentiles) {
  IntHistogram hist(200);
  for (int v = 1; v <= 100; ++v) hist.add(v);  // uniform 1..100
  EXPECT_EQ(hist.percentile(0.0), 1);
  EXPECT_EQ(hist.percentile(0.5), 50);
  EXPECT_EQ(hist.percentile(0.95), 95);
  EXPECT_EQ(hist.percentile(1.0), 100);
}

TEST(IntHistogram, SingleValue) {
  IntHistogram hist;
  hist.add(7);
  EXPECT_EQ(hist.percentile(0.01), 7);
  EXPECT_EQ(hist.percentile(0.99), 7);
}

TEST(IntHistogram, OverflowBucket) {
  IntHistogram hist(8);
  hist.add(100);
  hist.add(200);
  EXPECT_EQ(hist.overflow(), 2u);
  EXPECT_EQ(hist.max_seen(), 200);
  // Percentile reports the overflow bucket boundary for overflowed mass.
  EXPECT_EQ(hist.percentile(0.5), 9);
}

TEST(IntHistogram, NegativeClampsToZero) {
  IntHistogram hist;
  hist.add(-5);
  EXPECT_EQ(hist.count_of(0), 1u);
}

TEST(Metrics, HopHistogramTracksRequests) {
  MetricsCollector metrics(10, 0);
  metrics.on_request_completed(true, 2, 1);
  metrics.on_request_completed(false, 6, 1);
  metrics.on_request_completed(false, 6, 1);
  EXPECT_EQ(metrics.hop_histogram().total(), 3u);
  EXPECT_EQ(metrics.hop_histogram().count_of(6), 2u);
  EXPECT_EQ(metrics.hop_histogram().percentile(0.5), 6);
}

TEST(Metrics, ResetClearsEverything) {
  MetricsCollector metrics(4, 1);
  metrics.on_request_completed(true, 3, 7);
  metrics.reset();
  EXPECT_EQ(metrics.summary().completed, 0u);
  EXPECT_TRUE(metrics.series().empty());
  EXPECT_EQ(metrics.moving_hit_rate(), 0.0);
  EXPECT_EQ(metrics.hop_histogram().total(), 0u);
  // Window width survives the reset.
  metrics.on_request_completed(true, 3, 7);
  EXPECT_EQ(metrics.summary().completed, 1u);
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

TEST(PercentileTracker, DecimationBoundsMemoryAndStaysDeterministic) {
  PercentileTracker a(64);
  PercentileTracker b(64);
  for (int v = 0; v < 10000; ++v) {
    a.add(static_cast<double>(v % 977));
    b.add(static_cast<double>(v % 977));
  }
  EXPECT_EQ(a.count(), 10000u);
  EXPECT_LE(a.stored(), 64u);
  EXPECT_GT(a.stride(), 1u);
  // Same input sequence, same estimate — bit-identical.
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.percentile(q), b.percentile(q)) << q;
  }
  // The decimated estimate still tracks the true distribution.
  EXPECT_NEAR(a.percentile(0.5), 977 / 2.0, 977 * 0.15);
}

/// The estimator before selection replaced sorting: sort the whole store
/// on a query, thin the (possibly sorted) store on decimation.
class SortingTracker {
 public:
  explicit SortingTracker(std::size_t cap) : cap_(cap) {}

  void add(double value) {
    if (phase_ != 0) {
      phase_ = (phase_ + 1) % stride_;
      return;
    }
    phase_ = (phase_ + 1) % stride_;
    if (samples_.size() == cap_) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < samples_.size(); i += 2) samples_[kept++] = samples_[i];
      samples_.resize(kept);
      stride_ *= 2;
      phase_ = 1 % stride_;
    }
    samples_.push_back(value);
  }

  double percentile(double q) {
    if (samples_.empty()) return 0.0;
    std::sort(samples_.begin(), samples_.end());
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples_.size())));
    if (rank == 0) rank = 1;
    if (rank > samples_.size()) rank = samples_.size();
    return samples_[rank - 1];
  }

 private:
  std::size_t cap_;
  std::size_t stride_ = 1;
  std::size_t phase_ = 0;
  std::vector<double> samples_;
};

// Selection must answer exactly what a sort answers, for repeated queries,
// and queries between decimations must not change what decimation keeps.
TEST(PercentileTracker, SelectionMatchesSortedReference) {
  for (const std::size_t cap : {std::size_t{64}, std::size_t{1} << 20}) {
    PercentileTracker tracker(cap);
    SortingTracker reference(cap);
    util::Rng rng(cap);
    for (int i = 1; i <= 5000; ++i) {
      // Integral latencies with many ties, as the simulator records them.
      const auto v = static_cast<double>(rng.below(300));
      tracker.add(v);
      reference.add(v);
      if (i % 97 != 0) continue;
      for (int repeat = 0; repeat < 2; ++repeat) {
        for (const double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
          ASSERT_EQ(tracker.percentile(q), reference.percentile(q))
              << "cap " << cap << " sample " << i << " q " << q;
        }
      }
    }
  }
}

TEST(PercentileTracker, ClearResetsEverything) {
  PercentileTracker tracker(8);
  for (int v = 0; v < 100; ++v) tracker.add(v);
  tracker.clear();
  EXPECT_EQ(tracker.count(), 0u);
  EXPECT_EQ(tracker.stored(), 0u);
  EXPECT_EQ(tracker.stride(), 1u);
  EXPECT_EQ(tracker.percentile(0.5), 0.0);
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
  metrics.reset();
  EXPECT_EQ(metrics.latency_tracker().count(), 0u);
}

}  // namespace
}  // namespace adc::sim
