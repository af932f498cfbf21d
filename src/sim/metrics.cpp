#include "sim/metrics.h"

#include <algorithm>
#include <cmath>

namespace adc::sim {

std::string FaultCounters::text() const {
  std::string out;
  out += "drops_random=" + std::to_string(drops_random);
  out += " drops_partition=" + std::to_string(drops_partition);
  out += " drops_crash=" + std::to_string(drops_crash);
  out += " duplicates=" + std::to_string(duplicates);
  out += " delays=" + std::to_string(delays);
  out += " retries=" + std::to_string(retries);
  out += " reconnects=" + std::to_string(reconnects);
  out += " degraded_fetches=" + std::to_string(degraded_fetches);
  out += " timeouts=" + std::to_string(timeouts);
  out += " entries_invalidated=" + std::to_string(entries_invalidated);
  return out;
}

double MetricsSummary::fairness_ratio(const std::vector<std::uint64_t>& counts) noexcept {
  if (counts.empty()) return 0.0;
  std::uint64_t lo = counts.front();
  std::uint64_t hi = counts.front();
  for (const std::uint64_t c : counts) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  if (hi == 0) return 1.0;  // nobody served anything: trivially balanced
  return static_cast<double>(hi) / static_cast<double>(std::max<std::uint64_t>(lo, 1));
}

double MetricsSummary::max_share(const std::vector<std::uint64_t>& counts) noexcept {
  std::uint64_t total = 0;
  std::uint64_t hi = 0;
  for (const std::uint64_t c : counts) {
    total += c;
    hi = std::max(hi, c);
  }
  return total == 0 ? 0.0 : static_cast<double>(hi) / static_cast<double>(total);
}

void PercentileTracker::add(std::int64_t value) {
  ++count_;
  if (value < 0 || value >= static_cast<std::int64_t>(kDenseLimit)) {
    overflow_.push_back(value);
    overflow_sorted_ = false;
    return;
  }
  const auto index = static_cast<std::size_t>(value);
  if (index >= counts_.size()) {
    // Grow geometrically, but never past the dense range.
    counts_.reserve(std::min(kDenseLimit, std::max(index + 1, 2 * counts_.size())));
    counts_.resize(index + 1);
  }
  ++counts_[index];
}

std::int64_t PercentileTracker::percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  if (!overflow_sorted_) {
    std::sort(overflow_.begin(), overflow_.end());
    overflow_sorted_ = true;
  }
  // Ranks run through the negative overflow, the dense counts, then the
  // overflow at or above kDenseLimit.
  const auto negatives = static_cast<std::uint64_t>(
      std::lower_bound(overflow_.begin(), overflow_.end(), 0) - overflow_.begin());
  if (rank <= negatives) return overflow_[rank - 1];
  rank -= negatives;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    if (rank <= counts_[v]) return static_cast<std::int64_t>(v);
    rank -= counts_[v];
  }
  return overflow_[negatives + rank - 1];
}

double PercentileTracker::mean() const {
  if (count_ == 0) return 0.0;
  std::int64_t sum = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    sum += static_cast<std::int64_t>(v * counts_[v]);
  }
  for (const std::int64_t v : overflow_) sum += v;
  return static_cast<double>(sum) / static_cast<double>(count_);
}

void PercentileTracker::clear() {
  counts_.clear();
  overflow_.clear();
  overflow_sorted_ = true;
  count_ = 0;
}

void MovingAverage::add(double value) noexcept {
  // Add first, then subtract the value leaving the window: the order the
  // series' rounding depends on.
  sum_ += value;
  if (count_ < ring_.size()) {
    ring_[count_++] = value;
    return;
  }
  if (ring_.empty()) {
    sum_ -= value;
    return;
  }
  sum_ -= ring_[oldest_];
  ring_[oldest_] = value;
  if (++oldest_ == ring_.size()) oldest_ = 0;
}

double MovingAverage::value() const noexcept {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

MetricsCollector::MetricsCollector(std::size_t ma_window, std::uint64_t sample_every)
    : hit_ma_(ma_window), hops_ma_(ma_window), latency_ma_(ma_window),
      sample_every_(sample_every) {}

void MetricsCollector::on_request_completed(bool proxy_hit, int hops, SimTime latency,
                                             bool stale, std::uint64_t bytes, bool degraded) {
  ++summary_.completed;
  if (proxy_hit) {
    ++summary_.hits;
    if (stale) ++summary_.stale_hits;
  }
  summary_.total_hops += static_cast<std::uint64_t>(hops);
  summary_.total_latency += latency;
  summary_.bytes_completed += bytes;
  if (proxy_hit) summary_.bytes_hit += bytes;
  if (degraded) {
    ++summary_.degraded_reads;
    summary_.bytes_recovered += bytes;
  }

  hit_ma_.add(proxy_hit ? 1.0 : 0.0);
  hops_ma_.add(static_cast<double>(hops));
  latency_ma_.add(static_cast<double>(latency));
  hops_hist_.add(hops);
  latency_pt_.add(latency);

  if (sample_every_ != 0 && summary_.completed % sample_every_ == 0) {
    series_.push_back(SeriesPoint{summary_.completed, hit_ma_.value(), hops_ma_.value(),
                                  latency_ma_.value()});
  }
}

}  // namespace adc::sim
