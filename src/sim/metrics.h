// Request-level metric collection.
//
// Reproduces the paper's measurement methodology: hit rate and hops as
// moving averages over a trailing request window (Figure 11 uses 5000
// requests), plus whole-run totals for the sweep figures (13-15).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace adc::sim {

/// Shared fault-and-resilience counter vocabulary.  The simulator's fault
/// layer (fault::FaultyNetwork) fills the injection side; the live runtime
/// (server::NodeDaemon, the load generator) fills the resilience side.
/// Both report through the same struct so a chaos sweep and a SIGUSR1
/// stats dump speak the same language.
struct FaultCounters {
  // Injection (what the fault plan did to traffic).
  std::uint64_t drops_random = 0;     // lost to the loss probability
  std::uint64_t drops_partition = 0;  // lost to a link partition window
  std::uint64_t drops_crash = 0;      // lost to a node crash window
  std::uint64_t duplicates = 0;       // extra copies delivered
  std::uint64_t delays = 0;           // transfers given extra latency

  // Resilience (how the runtime routed around failures).
  std::uint64_t retries = 0;              // dial attempts after a failure
  std::uint64_t reconnects = 0;           // a down peer came back
  std::uint64_t degraded_fetches = 0;     // request rerouted to the origin
  std::uint64_t timeouts = 0;             // per-request deadlines fired
  std::uint64_t entries_invalidated = 0;  // table entries aged out for dead peers

  std::uint64_t total_drops() const noexcept {
    return drops_random + drops_partition + drops_crash;
  }

  /// One-line `key=value` rendering for stats dumps and bench tables.
  std::string text() const;
};

/// Histogram over small non-negative integers (hop counts): exact counts
/// up to `max_value`, an overflow bucket beyond.
class IntHistogram {
 public:
  explicit IntHistogram(int max_value = 64) : counts_(static_cast<std::size_t>(max_value) + 2) {}

  void add(int value) noexcept;
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t count_of(int value) const noexcept;
  std::uint64_t overflow() const noexcept { return counts_.back(); }

  /// Smallest value v with P(X <= v) >= q; -1 on an empty histogram.
  /// Overflowed samples count as the largest tracked value + 1.
  int percentile(double q) const noexcept;
  int max_seen() const noexcept { return max_seen_; }
  double mean() const noexcept;

 private:
  std::vector<std::uint64_t> counts_;  // [0..max_value] + overflow
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  int max_seen_ = -1;
};

/// Deterministic percentile estimator over double-valued samples (request
/// latencies).  Samples are stored and each percentile is selected from
/// them (nearest rank), so the result is independent of accumulation order
/// — unlike a running double sum, whose rounding depends on the order
/// values arrive.
/// The simulator's MetricsCollector and the live runtime's adc_loadgen
/// share this class so both report percentiles with identical semantics.
///
/// Memory is bounded: when `max_samples` is reached the stored set is
/// decimated to every other sample and the sampling stride doubles — a
/// deterministic (RNG-free) reservoir, so a given input sequence always
/// produces the same estimate.
class PercentileTracker {
 public:
  explicit PercentileTracker(std::size_t max_samples = 1 << 20);

  void add(double value);

  /// Nearest-rank percentile (smallest stored value v with CDF(v) >= q),
  /// matching IntHistogram::percentile; q clamped to [0, 1].  Returns 0
  /// when no samples were added.
  double percentile(double q) const;

  /// Total samples offered (including ones the stride skipped).
  std::uint64_t count() const noexcept { return added_; }
  std::size_t stored() const noexcept { return samples_.size(); }
  std::size_t stride() const noexcept { return stride_; }

  void clear();

 private:
  std::size_t cap_;
  std::size_t stride_ = 1;   // record every stride_-th sample once cap_ was hit
  std::size_t phase_ = 0;    // position within the current stride
  std::uint64_t added_ = 0;
  mutable std::vector<double> samples_;
  /// Leading samples a percentile() selection has permuted since the last
  /// decimation.  Decimation sorts them first, so it thins the sorted order
  /// of every sample a query has seen, whatever the selection left behind.
  mutable std::size_t selected_ = 0;
};

/// Fixed-window moving average over doubles, kept in a ring of `window`
/// slots.
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window) : ring_(window) {}

  void add(double value) noexcept;
  double value() const noexcept;
  std::size_t count() const noexcept { return count_; }
  std::size_t window() const noexcept { return ring_.size(); }

 private:
  std::vector<double> ring_;
  std::size_t oldest_ = 0;  // slot of the oldest value once the ring is full
  std::size_t count_ = 0;
  double sum_ = 0.0;
};

/// One sampled point of the Figure-11/12 time series.
struct SeriesPoint {
  std::uint64_t requests = 0;   // x axis: total completed requests
  double hit_rate = 0.0;        // moving-average hit rate
  double hops = 0.0;            // moving-average hops
  double latency = 0.0;         // moving-average simulated latency
};

/// Per-link-class traffic totals, filled by the experiment driver from
/// sim::Network's class counters at run end.  Messages count transfers;
/// bytes count the payload each transfer carried (0 while the payload
/// store is disabled — requests and control traffic carry none), so the
/// control-plane overhead of SWIM, anti-entropy and chunk lookups is
/// separable from payload traffic in EXPERIMENTS tables.
struct TrafficTotals {
  std::uint64_t request_messages = 0;
  std::uint64_t reply_messages = 0;
  std::uint64_t control_messages = 0;  // SWIM probes/gossip + anti-entropy
  std::uint64_t store_messages = 0;    // stripe registration + chunk traffic
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t store_bytes = 0;

  std::uint64_t total_messages() const noexcept {
    return request_messages + reply_messages + control_messages + store_messages;
  }
  std::uint64_t total_bytes() const noexcept {
    return request_bytes + reply_bytes + control_bytes + store_bytes;
  }
  /// Fraction of all transfers that were control-plane (SWIM/anti-entropy
  /// plus erasure-tier bookkeeping) rather than the request/reply path.
  double overhead_message_share() const noexcept {
    const std::uint64_t total = total_messages();
    return total == 0 ? 0.0
                      : static_cast<double>(control_messages + store_messages) /
                            static_cast<double>(total);
  }
};

struct MetricsSummary {
  std::uint64_t completed = 0;
  std::uint64_t hits = 0;
  /// Per-owner load accounting, indexed by proxy position in the
  /// deployment: requests each proxy received (entry deliveries and
  /// forwards both count — it is the proxy's processing load) and the
  /// local hits it served.  Filled by the experiment driver from the
  /// per-proxy counters once a run ends; empty when a collector is used
  /// without a deployment (unit tests, partial windows).
  std::vector<std::uint64_t> owner_requests;
  std::vector<std::uint64_t> owner_hits;
  /// Whole-run latency tail from the deterministic PercentileTracker
  /// (stamped by the driver at run end; 0 until then).  The adversarial
  /// suite reports these alongside the means: a hash flood can leave the
  /// mean flat while the tail explodes.
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
  /// Requests that never completed: the per-request timeout expired (only
  /// nonzero under fault injection).  Failed requests are excluded from
  /// every other aggregate — hit_rate() stays hits/completed.
  std::uint64_t failed = 0;
  /// Hits that served data older than the origin's current version
  /// (always 0 when versioning is disabled).
  std::uint64_t stale_hits = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t total_forwards = 0;
  SimTime total_latency = 0;

  // --- Byte accounting (all 0 while the payload store is disabled) -------
  /// Payload bytes of every completed request.
  std::uint64_t bytes_completed = 0;
  /// Bytes of completions a proxy resolved (cache hits + degraded reads);
  /// the remainder was fetched from the origin.
  std::uint64_t bytes_hit = 0;
  /// Bytes answered by erasure-tier degraded reads (subset of bytes_hit).
  std::uint64_t bytes_recovered = 0;
  /// Completions flagged degraded.
  std::uint64_t degraded_reads = 0;
  /// Per-owner served payload bytes (parallel to owner_requests).
  std::vector<std::uint64_t> owner_bytes;

  /// Per-link-class message/byte totals (driver-filled; all zero when a
  /// collector is used without a deployment).
  TrafficTotals traffic;

  double hit_rate() const noexcept {
    return completed == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(completed);
  }
  double avg_hops() const noexcept {
    return completed == 0 ? 0.0
                          : static_cast<double>(total_hops) / static_cast<double>(completed);
  }
  double avg_latency() const noexcept {
    return completed == 0 ? 0.0
                          : static_cast<double>(total_latency) / static_cast<double>(completed);
  }
  /// Fraction of hits that were stale.
  double stale_rate() const noexcept {
    return hits == 0 ? 0.0 : static_cast<double>(stale_hits) / static_cast<double>(hits);
  }
  /// Fraction of all resolved requests (completed or timed out) that were
  /// lost — the chaos sweeps' availability metric.
  double failure_rate() const noexcept {
    const std::uint64_t resolved = completed + failed;
    return resolved == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(resolved);
  }

  /// Fraction of completed *bytes* served by proxies rather than the
  /// origin — the economics metric the request hit rate hides under
  /// heavy-tailed sizes.
  double byte_hit_rate() const noexcept {
    return bytes_completed == 0
               ? 0.0
               : static_cast<double>(bytes_hit) / static_cast<double>(bytes_completed);
  }
  /// Bytes that had to come from the origin server.
  std::uint64_t origin_bytes() const noexcept { return bytes_completed - bytes_hit; }

  /// Max/min fairness ratio over a per-owner counter vector: 1.0 is a
  /// perfectly balanced cluster, larger means more skew.  An owner with a
  /// zero counter is graded as if it had 1 (so a flood that starves peers
  /// entirely reports `max`, not infinity); an empty vector returns 0.
  static double fairness_ratio(const std::vector<std::uint64_t>& counts) noexcept;

  /// Largest single-owner share of the summed counter, in [0, 1] — the
  /// flood-concentration metric (1/n when balanced over n owners).
  static double max_share(const std::vector<std::uint64_t>& counts) noexcept;

  double request_fairness() const noexcept { return fairness_ratio(owner_requests); }
  double hit_fairness() const noexcept { return fairness_ratio(owner_hits); }
};

class MetricsCollector {
 public:
  /// `ma_window`: trailing window of the moving averages (paper: 5000).
  /// `sample_every`: a series point is recorded each time this many
  /// requests complete (0 disables series collection).
  explicit MetricsCollector(std::size_t ma_window = 5000,
                            std::uint64_t sample_every = 5000);

  /// Called by the client when a reply arrives.  `stale` marks a hit that
  /// served outdated data (ignored for misses).  `bytes` is the payload
  /// size the reply carried (0 while the store is disabled) and `degraded`
  /// marks an erasure-tier reconstruction.
  void on_request_completed(bool proxy_hit, int hops, SimTime latency, bool stale = false,
                            std::uint64_t bytes = 0, bool degraded = false);

  /// Called when a request's deadline expired with no reply (fault runs
  /// only).  Counts into summary().failed and nothing else.
  void on_request_failed() noexcept { ++summary_.failed; }

  const MetricsSummary& summary() const noexcept { return summary_; }
  const std::vector<SeriesPoint>& series() const noexcept { return series_; }

  double moving_hit_rate() const noexcept { return hit_ma_.value(); }
  double moving_hops() const noexcept { return hops_ma_.value(); }

  /// Whole-run distribution of per-request hop counts.
  const IntHistogram& hop_histogram() const noexcept { return hops_hist_; }

  /// Whole-run per-request latency distribution (deterministic; shared
  /// semantics with the live runtime's load generator).
  const PercentileTracker& latency_tracker() const noexcept { return latency_pt_; }

  /// Resets counters (summary + series + windows), e.g. to exclude a warmup
  /// phase from the reported totals.
  void reset();

 private:
  MetricsSummary summary_;
  MovingAverage hit_ma_;
  MovingAverage hops_ma_;
  MovingAverage latency_ma_;
  IntHistogram hops_hist_;
  PercentileTracker latency_pt_;
  std::uint64_t sample_every_;
  std::vector<SeriesPoint> series_;
};

}  // namespace adc::sim
