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

PercentileTracker::PercentileTracker(std::size_t max_samples)
    : cap_(max_samples < 2 ? 2 : max_samples) {
  // An odd cap would drift the even-index decimation; keep it even.
  cap_ &= ~std::size_t{1};
}

void PercentileTracker::add(double value) {
  ++added_;
  if (phase_ != 0) {
    phase_ = (phase_ + 1) % stride_;
    return;
  }
  phase_ = (phase_ + 1) % stride_;
  pivot_ = kNoPivot;
  if (samples_.size() == cap_) {
    // Keep every other stored sample and halve the future sampling rate:
    // deterministic, no RNG, bounded memory.  (Samples a percentile() call
    // has seen are thinned in sorted order — uniformly over the order
    // statistics instead of the arrival sequence; either is an unbiased
    // subsample.)
    std::sort(samples_.begin(), samples_.begin() + static_cast<std::ptrdiff_t>(selected_));
    selected_ = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2) samples_[kept++] = samples_[i];
    samples_.resize(kept);
    stride_ *= 2;
    phase_ = 1 % stride_;
  }
  samples_.push_back(value);
}

double PercentileTracker::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto n = static_cast<double>(samples_.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;  // q == 0 means "the minimum value"
  if (rank > samples_.size()) rank = samples_.size();
  // After a selection every sample before the pivot is <= it and every
  // one after is >= it, so a later rank lies in [pivot, end) and an
  // earlier one in [begin, pivot): select within that side alone.
  const std::size_t index = rank - 1;
  auto first = samples_.begin();
  auto last = samples_.end();
  if (pivot_ != kNoPivot) {
    if (index == pivot_) return samples_[index];
    if (index > pivot_) {
      first += static_cast<std::ptrdiff_t>(pivot_);
    } else {
      last = first + static_cast<std::ptrdiff_t>(pivot_);
    }
  }
  const auto kth = samples_.begin() + static_cast<std::ptrdiff_t>(index);
  std::nth_element(first, kth, last);
  selected_ = samples_.size();
  pivot_ = index;
  return *kth;
}

void PercentileTracker::clear() {
  samples_.clear();
  stride_ = 1;
  phase_ = 0;
  added_ = 0;
  selected_ = 0;
  pivot_ = kNoPivot;
}

void IntHistogram::add(int value) noexcept {
  if (value < 0) value = 0;
  ++total_;
  sum_ += static_cast<std::uint64_t>(value);
  if (value > max_seen_) max_seen_ = value;
  const auto index = static_cast<std::size_t>(value);
  if (index < counts_.size() - 1) {
    ++counts_[index];
  } else {
    ++counts_.back();
  }
}

std::uint64_t IntHistogram::count_of(int value) const noexcept {
  if (value < 0 || static_cast<std::size_t>(value) >= counts_.size() - 1) return 0;
  return counts_[static_cast<std::size_t>(value)];
}

int IntHistogram::percentile(double q) const noexcept {
  if (total_ == 0) return -1;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto threshold = static_cast<std::uint64_t>(q * static_cast<double>(total_) + 0.999999);
  if (threshold == 0) threshold = 1;  // q == 0 means "the minimum value"
  std::uint64_t cumulative = 0;
  for (std::size_t v = 0; v < counts_.size() - 1; ++v) {
    cumulative += counts_[v];
    if (cumulative >= threshold) return static_cast<int>(v);
  }
  return static_cast<int>(counts_.size() - 1);  // overflow bucket
}

double IntHistogram::mean() const noexcept {
  return total_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(total_);
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
  latency_pt_.add(static_cast<double>(latency));

  if (sample_every_ != 0 && summary_.completed % sample_every_ == 0) {
    series_.push_back(SeriesPoint{summary_.completed, hit_ma_.value(), hops_ma_.value(),
                                  latency_ma_.value()});
  }
}

}  // namespace adc::sim
