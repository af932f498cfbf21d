// TCP load generator: the live-runtime counterpart of proxy::Client.
//
// Connects to every entry proxy of a running adcd cluster, announces
// itself with HELLO (so CARP's owner-to-client direct replies can route),
// and replays a workload trace closed-loop with a fixed number of
// outstanding requests.  Accounting mirrors the simulator's client: a hit
// is a reply with proxy_hit set, hops arrive pre-counted by the daemons
// (one per transfer, the client-to-entry transfer included), and latency
// is wall microseconds from issue to reply, summarized by the same
// deterministic PercentileTracker the simulator reports with.
//
// The generator survives faults: a dead entry connection is classified
// (refused / reset / orderly close / write error), the entry goes through
// the shared capped-backoff health tracker and is redialed, and an
// optional per-request deadline reclaims slots whose replies were lost,
// so an injected-loss run completes instead of hanging.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/peer_health.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"
#include "sim/metrics.h"
#include "util/rng.h"
#include "util/types.h"

namespace adc::server {

enum class EntryChoice : std::uint8_t {
  kRoundRobin,
  kRandom,
};

struct LoadGenConfig {
  /// Must not collide with a daemon's id; 6 follows the five proxies and
  /// the origin of the documented cluster (ids 0-5).
  NodeId client_id = 6;

  /// Entry proxies by node id; requests spread across all of them.
  std::map<NodeId, net::Endpoint> proxies;

  int concurrency = 4;
  EntryChoice entry = EntryChoice::kRoundRobin;
  std::uint64_t seed = 1;

  /// Abort when no reply arrives for this long (a wedged cluster must not
  /// hang the test suite).  <= 0 disables.
  int idle_timeout_ms = 30000;

  /// Per-request deadline (<= 0 disables).  An expired request counts as
  /// failed and frees its concurrency slot, so lost messages cannot stall
  /// the closed loop.  A reply arriving after its deadline is ignored.
  int request_timeout_ms = 0;

  /// Reconnect backoff for entries whose connection died.
  fault::PeerHealth::Config health;
};

/// Per-connection error accounting: how entry-proxy connections ended and
/// how often requests could not complete.
struct LoadGenErrors {
  std::uint64_t connect_refused = 0;  // redial attempts that failed outright
  std::uint64_t peer_resets = 0;      // connections lost to RST / hard errors
  std::uint64_t orderly_closes = 0;   // connections the peer closed cleanly
  std::uint64_t write_errors = 0;     // queued writes that killed the conn
  std::uint64_t corrupt_frames = 0;   // connections dropped on undecodable data
  std::uint64_t reconnects = 0;       // a down entry came back

  std::uint64_t total_conn_failures() const noexcept {
    return connect_refused + peer_resets + write_errors + corrupt_frames;
  }
  std::string text() const;
};

/// The client-side membership view: the generator runs no failure
/// detector, but its health tracker sees the same evidence one would
/// (connect failures, resets, reconnects), so the final report grades each
/// entry the way SWIM would — alive (no failure streak), suspect (a short
/// streak), dead (a streak past the suspicion threshold).
struct EntryView {
  NodeId entry = kInvalidNode;
  int failure_streak = 0;  // consecutive failures at report time
  const char* state() const noexcept {
    if (failure_streak == 0) return "alive";
    return failure_streak <= kSuspectStreak ? "suspect" : "dead";
  }
  static constexpr int kSuspectStreak = 3;
};

struct LoadGenReport {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;             // per-request deadlines that expired
  std::uint64_t duplicate_replies = 0;  // replies for already-resolved requests
  std::uint64_t hits = 0;
  std::uint64_t total_hops = 0;

  /// Byte accounting from the reply stream (all zero while the cluster
  /// runs without the payload store): payload bytes over completed
  /// requests, the subset served from proxy caches, and the subset
  /// reconstructed by degraded reads after a member death.
  std::uint64_t bytes_completed = 0;
  std::uint64_t bytes_hit = 0;
  std::uint64_t bytes_recovered = 0;
  std::uint64_t degraded_reads = 0;

  /// Proactive re-stripe repair progress, summed over the cluster by the
  /// harness that owns the daemons (the generator itself sees only the
  /// request stream, so a standalone adc_loadgen reports zeros; cluster
  /// tests fill these from NodeDaemon::hosted_tier()).
  std::uint64_t stripes_healed = 0;
  std::uint64_t repair_bytes = 0;
  std::uint64_t repair_rounds = 0;

  double wall_seconds = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  bool timed_out = false;
  LoadGenErrors errors;

  /// Requests issued per entry proxy, for the same max/min fairness ratio
  /// the simulator reports: a hash-flood replay shows up as one entry (or,
  /// with CARP direct replies, one owner) absorbing most of the traffic.
  std::map<NodeId, std::uint64_t> entry_requests;

  /// Payload bytes of completed requests, attributed to the entry proxy
  /// each request was issued through (empty while the store is off).
  /// json() derives per-entry bytes/s from these and wall_seconds — the
  /// observable an egress-paced cluster caps.
  std::map<NodeId, std::uint64_t> entry_bytes;

  /// Entry proxies graded by observed health, plus the count of up/down
  /// transitions this run saw — the client-side analogue of a membership
  /// epoch.
  std::vector<EntryView> entry_views;
  std::uint64_t view_epoch = 0;

  double hit_rate() const noexcept {
    return completed == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(completed);
  }
  double failure_rate() const noexcept {
    const std::uint64_t resolved = completed + failed;
    return resolved == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(resolved);
  }
  double mean_hops() const noexcept {
    return completed == 0 ? 0.0
                          : static_cast<double>(total_hops) / static_cast<double>(completed);
  }
  double throughput() const noexcept {
    return wall_seconds <= 0.0 ? 0.0 : static_cast<double>(completed) / wall_seconds;
  }
  double byte_hit_rate() const noexcept {
    return bytes_completed == 0
               ? 0.0
               : static_cast<double>(bytes_hit) / static_cast<double>(bytes_completed);
  }
  double bytes_per_second() const noexcept {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(bytes_completed) / wall_seconds;
  }
  /// Max/min ratio over entry_requests (see sim::MetricsSummary).
  double entry_fairness() const noexcept;

  std::string text() const;

  /// Machine-readable artifact: one flat JSON object whose header names
  /// the workload that produced it, so a CI upload is self-describing.
  std::string json(std::string_view workload) const;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(LoadGenConfig config);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Connects and HELLOs to every configured proxy (with startup retries).
  bool connect(std::string* error);

  /// Replays `objects` and blocks until every request resolved — completed
  /// or expired — or the idle timeout fired.  connect() must have
  /// succeeded.  Counters reset per call, so a harness can replay two
  /// phases through one generator and measure them separately.
  LoadGenReport run(const std::vector<ObjectId>& objects);

 private:
  bool issue_next();
  void expire_overdue();
  NodeId pick_entry();

  /// Usable fd for an entry: the live route, or a fresh backoff-gated
  /// redial.  -1 while the entry is down.
  int entry_fd(NodeId entry);

  void on_conn_event(int fd, bool readable, bool writable);
  void on_reply(const sim::Message& msg);

  /// Classifies a dead connection, records the failure against its entry,
  /// and forgets it.  Outstanding requests routed over it resolve via the
  /// request timeout.
  void conn_died(int fd, net::Conn::Io io);

  LoadGenConfig config_;
  util::Rng rng_;
  std::vector<NodeId> entries_;  // sorted proxy ids, for round-robin order
  std::size_t cursor_ = 0;

  net::EventLoop loop_;
  std::map<int, std::unique_ptr<net::Conn>> conns_;
  std::map<NodeId, int> routes_;
  net::Frame rx_;  // reused by every read loop, so replies decode without allocating
  fault::PeerHealth health_;

  const std::vector<ObjectId>* objects_ = nullptr;
  std::size_t next_index_ = 0;
  /// Never reset: request ids must stay unique across run() calls, or a
  /// straggler reply from a previous phase could resolve a new request.
  std::uint64_t lifetime_issued_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_requests_ = 0;
  std::uint64_t duplicate_replies_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t total_hops_ = 0;
  std::uint64_t bytes_completed_ = 0;
  std::uint64_t bytes_hit_ = 0;
  std::uint64_t bytes_recovered_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::map<NodeId, std::uint64_t> entry_requests_;
  std::map<NodeId, std::uint64_t> entry_bytes_;
  sim::PercentileTracker latency_us_;
  LoadGenErrors errors_;
  std::uint64_t view_epoch_ = 0;  // entry up/down transitions this run

  /// In-flight requests: deadline is a microsecond steady-clock stamp
  /// (INT64_MAX when the per-request timeout is off); entry is the proxy
  /// the request was issued through, for per-entry byte attribution.
  struct Outstanding {
    std::int64_t deadline = 0;
    NodeId entry = kInvalidNode;
  };
  std::unordered_map<RequestId, Outstanding> outstanding_;
};

}  // namespace adc::server
