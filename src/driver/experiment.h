// Experiment driver: builds a proxy deployment for a scheme, replays a
// trace through it, and collects the metrics the paper reports.  Every
// bench binary and example is a thin wrapper around run_experiment().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/policies.h"
#include "core/adc_config.h"
#include "core/adc_proxy.h"
#include "driver/proxy_factory.h"
#include "fault/fault_plan.h"
#include "link/link_model.h"
#include "proxy/client.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "store/payload.h"
#include "workload/trace.h"

namespace adc::driver {

struct ExperimentConfig {
  Scheme scheme = Scheme::kAdc;

  /// Number of cooperating proxies (paper default: 5).
  int proxies = 5;

  /// ADC parameters (table sizes, max forwards, ablation switches).
  core::AdcConfig adc;

  /// Baseline proxies' cache capacity; 0 means "same as the ADC caching
  /// table" so aggregate storage is comparable across schemes.
  std::size_t baseline_cache_capacity = 0;
  cache::Policy baseline_policy = cache::Policy::kLru;

  /// CARP/hashing: route replies through the entry proxy so it caches too
  /// (the paper's baseline bypasses the entry proxy).
  bool entry_caching = false;

  /// CARP only: per-proxy relative load factors (empty = all equal).  The
  /// CARP draft's knob for heterogeneous members: a proxy with factor 0.5
  /// owns roughly half the URL space of a factor-1.0 peer.
  std::vector<double> carp_load_factors;

  /// SOAP: number of URL categories (domains) its mapping tables cover.
  std::size_t soap_categories = 256;

  /// Fault injection ("changes of the infrastructure", paper Section
  /// V.1): when `at_completed` > 0, proxy `proxy_index` cold-restarts —
  /// losing its cache and learned tables — the moment that many requests
  /// have completed.  Connectivity survives, so the run still finishes.
  struct FaultSpec {
    std::uint64_t at_completed = 0;  // 0 disables
    int proxy_index = 0;
  };
  FaultSpec fault;

  /// Message-level fault injection: the plan drives a fault::FaultyNetwork
  /// installed on the simulator's send path (drops, duplicates, extra
  /// delays, partitions, crash windows).  A crash window whose
  /// `flush_state` is set also cold-restarts the proxy at the window
  /// start, like FaultSpec but time- rather than milestone-triggered.
  /// A zero plan (the default) installs nothing — runs stay bit-identical
  /// to pre-fault builds.
  fault::FaultPlan fault_plan;

  /// Per-request client deadline in sim ticks (0 = off).  Required for a
  /// lossy fault_plan: a dropped message would otherwise stall the closed
  /// loop forever.  Expired requests count into MetricsSummary::failed.
  SimTime request_timeout = 0;

  /// Live membership (SWIM failure detection + transition-gated
  /// anti-entropy), enabled via membership.swim.enabled.  Each proxy is
  /// wrapped in a membership::MemberAgent; a confirmed death prunes the
  /// ADC mapping tables and forwarding membership, or rebuilds the
  /// CARP/ring/HRW owner map, and a rejoin reverses it.  Supported for
  /// kAdc, kCarp, kConsistent, kRendezvous; ignored for the other schemes
  /// (their topology is fixed by construction).  With zero churn a
  /// detector-enabled run is bit-identical to a disabled one apart from
  /// raw message/event counts (SWIM probes ride the same transport).
  membership::MembershipConfig membership;

  /// When true, each ProxySnapshot also lists the object ids cached at
  /// the end of the run (for duplication/partitioning analysis); costs
  /// memory proportional to the aggregate cache, so off by default.
  bool collect_cache_contents = false;

  /// Heterogeneous hardware: proxy `slow_proxy_index` takes an extra
  /// `slow_proxy_delay` time units to process every delivered message
  /// (disabled when the delay is 0).  The coordinator's response-time
  /// learning reacts to this; content-addressed schemes cannot.
  int slow_proxy_index = -1;
  SimTime slow_proxy_delay = 0;

  /// Cache consistency: mean simulated-time interval between origin-side
  /// object updates (0 = objects never change).  When enabled, hits that
  /// serve data older than the origin's current version are counted in
  /// MetricsSummary::stale_hits.
  SimTime object_update_interval = 0;

  /// Payload store (payload.enabled): every object gets a deterministic
  /// heavy-tailed size, replies carry payload bytes, proxy caches become
  /// byte-budgeted and size-aware, and (payload.erasure.enabled) proxies
  /// host an erasure tier answering post-death misses as degraded reads.
  /// Disabled (the default) the run is bit-identical to a store-free
  /// build: the store consumes no shared RNG state.  Applied to every
  /// scheme except kSoap (whose category tables predate the store).
  store::PayloadConfig payload;

  /// Bandwidth model (link.enabled): every send over a finite-capacity
  /// link becomes a queued transfer scheduled by a link::TransferScheduler
  /// (serialization + queueing + DRR fairness between destinations sharing
  /// an egress), and — with the payload store on — degraded reads prefer
  /// stripe peers with the lightest egress backlog.  Disabled (the
  /// default) the run is bit-identical to a link-free build.
  link::LinkConfig link;

  proxy::EntryPolicy entry_policy = proxy::EntryPolicy::kRandom;

  /// Closed-loop request streams kept in flight by the client.
  int concurrency = 1;

  std::uint64_t seed = 1;

  /// Metrics: moving-average window and series sampling stride (paper
  /// Figure 11 uses a 5000-request moving average).
  std::size_t ma_window = 5000;
  std::uint64_t sample_every = 5000;

  sim::LatencyModel latency;

  /// Checks what run_experiment cannot run: no proxies, a proxy cache of
  /// capacity 0, CARP load factors that do not cover every proxy, or a
  /// fault (FaultSpec, or a crash window that flushes state) aimed at a
  /// node that is not a proxy.
  /// Returns the first problem, or an empty string for a runnable config.
  /// Unlike an assert this holds in release builds; run_experiment throws
  /// std::invalid_argument with the same message.
  std::string validate() const;
};

/// Per-proxy end-of-run counters; `cached_ids` is filled only when
/// ExperimentConfig::collect_cache_contents is set.
using ProxySnapshot = sim::ProxySnapshot;

struct ExperimentResult {
  sim::MetricsSummary summary;
  std::vector<sim::SeriesPoint> series;

  /// Host wall-clock seconds spent inside the simulation loop (the paper's
  /// Figure-15 "processing time" analogue).
  double wall_seconds = 0.0;

  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t origin_served = 0;
  SimTime sim_end_time = 0;

  /// Whole-run per-request hop distribution (median / tail / worst).
  int hops_p50 = -1;
  int hops_p95 = -1;
  int hops_max = -1;

  /// Whole-run simulated-latency percentiles (sim-time units), from the
  /// deterministic PercentileTracker the live runtime's loadgen also uses.
  /// p99/p99.9 are mirrored into summary.latency_p99/latency_p999, and the
  /// per-proxy request/hit counters into summary.owner_requests/owner_hits
  /// (feeding the max/min fairness ratio), so every bench reports tails
  /// and fairness through one struct.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;

  std::vector<ProxySnapshot> proxies;

  /// ADC only: aggregated algorithm counters over all proxies.
  core::AdcProxyStats adc_totals;

  /// Membership summary (all zero unless membership.swim.enabled):
  /// detector counters aggregated over all member agents, plus the owner
  /// reshuffle impact for the hashing schemes.
  struct MembershipSummary {
    std::uint64_t max_epoch = 0;     // highest epoch any member reached
    std::uint64_t deaths = 0;        // confirmed deaths, summed over members
    std::uint64_t joins = 0;         // confirmed rejoins, summed over members
    std::uint64_t suspicions = 0;
    std::uint64_t refutations = 0;
    std::uint64_t repair_rounds = 0;  // anti-entropy rounds fired
    double max_reshuffle_fraction = 0.0;  // worst owner-map reshuffle observed
  };
  MembershipSummary membership;

  /// Fault-injection counters (all zero when fault_plan.is_zero()):
  /// injection side from the FaultyNetwork, `timeouts` from the client's
  /// expired deadlines.
  sim::FaultCounters faults;

  /// Payload-store and erasure-tier aggregates over all proxies (all zero
  /// while payload.enabled is false).  The request-level byte counters
  /// (byte hit rate, origin bytes, recovered bytes) live in `summary`;
  /// these are the supply-side totals.
  struct StoreSummary {
    std::uint64_t payload_bytes_served = 0;   // proxy-side hits + degraded
    std::uint64_t payload_bytes_fetched = 0;  // proxy-side origin fetches
    std::uint64_t origin_bytes_served = 0;    // origin's own byte counter
    std::uint64_t stripes_registered = 0;
    std::uint64_t chunks_stored = 0;
    std::uint64_t chunks_evicted = 0;
    std::uint64_t chunk_requests_sent = 0;
    std::uint64_t chunk_replies_served = 0;
    std::uint64_t chunk_bytes_sent = 0;
    std::uint64_t degraded_started = 0;
    std::uint64_t degraded_recovered = 0;
    std::uint64_t degraded_failed = 0;
    std::uint64_t recovered_bytes = 0;
    std::uint64_t chunk_requests_skipped = 0;  // recovery load steering
    std::uint64_t directory_entries = 0;  // chunk-directory totals at run end
    std::uint64_t directory_bytes = 0;

    // Proactive re-stripe repair (all zero unless payload.erasure.restripe).
    std::uint64_t stripes_healed = 0;      // repair offers acked, leader side
    std::uint64_t repair_offers = 0;       // kRestripeOffer messages sent
    std::uint64_t repair_retries = 0;      // offers re-sent after unacked rounds
    std::uint64_t repair_rounds = 0;       // planner rounds that sent >= 1 offer
    std::uint64_t repair_bytes = 0;        // chunk bytes offered (budget-charged)
    std::uint64_t repair_abandoned = 0;    // items that exhausted their retries
    std::uint64_t repair_cancelled = 0;    // items mooted by a rejoin
    std::uint64_t repair_handbacks = 0;    // rejoin hand-backs completed
    std::uint64_t repair_adopted = 0;      // offers recorded by replacements
    std::uint64_t repair_round_bytes_max = 0;  // largest single round anywhere

    // Post-run stripe census over the proxies still standing at sim end
    // (permanently crashed nodes excluded): objects with at least one
    // surviving chunk, and among them the ones no longer reconstructible
    // (fewer than k distinct chunk indexes alive) — the set a second
    // death strands without proactive repair.
    std::uint64_t stripe_objects_tracked = 0;
    std::uint64_t stripes_stranded = 0;
  };
  StoreSummary store;

  /// Link-layer transfer accounting (all zero unless config.link.enabled).
  /// Wait percentiles are ticks from enqueue to first burst, read off the
  /// scheduler's deterministic PercentileTracker.
  struct LinkSummary {
    std::uint64_t transfers = 0;
    std::uint64_t passthrough = 0;
    std::uint64_t queued = 0;
    std::uint64_t bursts = 0;
    std::uint64_t bytes = 0;
    std::uint64_t max_backlog_bytes = 0;
    double wait_p50 = 0.0;
    double wait_p99 = 0.0;
    double wait_p999 = 0.0;
    SimTime max_wait = 0;
  };
  LinkSummary link;
};

/// Adapts a workload::Trace to the client's pull interface.
class TraceStream final : public proxy::RequestStream {
 public:
  explicit TraceStream(const workload::Trace& trace) : trace_(&trace) {}

  std::optional<ObjectId> next() override {
    if (cursor_ >= trace_->size()) return std::nullopt;
    return (*trace_)[cursor_++];
  }

  std::uint64_t cursor() const noexcept { return cursor_; }

 private:
  const workload::Trace* trace_;
  std::uint64_t cursor_ = 0;
};

/// Runs the full trace through a freshly built deployment and returns the
/// collected metrics.  Deterministic in (config, trace).
ExperimentResult run_experiment(const ExperimentConfig& config, const workload::Trace& trace);

}  // namespace adc::driver
