// adcd: a node daemon hosting one protocol agent over TCP.
//
// NodeDaemon is the live-runtime implementation of sim::Transport: it owns
// exactly one sim::Node (an unmodified core::AdcProxy, the CARP baseline's
// proxy::HashingProxy, or the proxy::OriginServer), a listening socket, and
// lazily-established connections to its peers.  Proxies come from the
// simulator's driver::build_proxy and, with membership on, run inside the
// same membership::MemberAgent wrapper the simulator uses.  The agent code
// cannot tell whether it is running under the discrete-event Simulator or
// here — both deliver through Node::on_message and both increment
// Message::hops exactly once per transfer, so hit-rate and hop accounting
// agree across media.
//
// Frames carry the request's journey path: on every delivery the daemon
// extends the incoming path with its own id and stamps it onto each frame
// the delivery triggers, so a wire capture shows the full random walk and
// the backwarding return path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/policies.h"
#include "core/adc_config.h"
#include "fault/fault_plan.h"
#include "fault/faulty_network.h"
#include "fault/peer_health.h"
#include "membership/member_agent.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"
#include "sim/metrics.h"
#include "sim/node.h"
#include "sim/proxy_agent.h"
#include "sim/transport.h"
#include "store/payload.h"
#include "util/rng.h"
#include "util/types.h"

namespace adc::server {

enum class DaemonRole : std::uint8_t {
  kAdcProxy,   // core::AdcProxy
  kCarpProxy,  // proxy::HashingProxy over a CARP array of all proxies
  kOrigin,     // proxy::OriginServer
};

/// Every accepted `--role` name, aliases included; each role's first entry
/// is the name the daemon's logs and stats use.
const std::vector<std::pair<std::string, DaemonRole>>& daemon_role_names();

struct DaemonConfig {
  NodeId node_id = 0;
  DaemonRole role = DaemonRole::kAdcProxy;

  /// Listen address; port 0 binds an ephemeral port (bind() returns it).
  net::Endpoint listen;

  /// Other daemons by node id (proxies and the origin, not clients —
  /// clients announce themselves with HELLO when they connect).
  std::map<NodeId, net::Endpoint> peers;

  /// Full proxy membership including this node when it is a proxy; must be
  /// identical on every member (drives random forwarding and CARP).
  std::vector<NodeId> proxy_ids;
  NodeId origin_id = kInvalidNode;

  core::AdcConfig adc;
  std::size_t carp_cache_capacity = 10000;
  cache::Policy carp_policy = cache::Policy::kLru;

  std::uint64_t seed = 1;

  /// Chaos injection on this daemon's outbound sends.  Only the
  /// probabilistic drop/duplicate faults apply live — extra delay would
  /// need timers the event loop does not keep, and crash windows are the
  /// operator's job (kill the process).  Zero plan (default) = no chaos.
  fault::FaultPlan fault_plan;

  /// Reconnect backoff parameters for peer-health tracking.
  fault::PeerHealth::Config health;

  /// SWIM failure detection + transition-gated anti-entropy, enabled via
  /// membership.swim.enabled (proxy roles only — the origin is not a
  /// member).  Timeouts are in this transport's clock, i.e. microseconds;
  /// adcd's --membership flag installs live-scale defaults (1s pings, 3s
  /// suspicion).  A confirmed death purges ADC mapping entries naming the
  /// silent peer (even with no traffic in flight) or rebuilds the CARP
  /// owner map; a rejoin reverses it.
  membership::MembershipConfig membership;

  /// Payload store (payload.enabled): the daemon derives the same synthetic
  /// object sizes the simulator uses, serializes a body sample + checksum
  /// into every payload-carrying frame, and verifies received bodies
  /// against its own derivation.  `payload.seed` must be identical
  /// cluster-wide or every received body reads as corrupt.  Proxy roles
  /// additionally get byte-budgeted caches and (payload.erasure.enabled)
  /// the degraded-read erasure tier over `proxy_ids`.
  store::PayloadConfig payload;

  /// Token-bucket egress pacing (0 = off): outbound frames are charged
  /// their *accounted* bytes — the larger of the frame's wire size and its
  /// payload_bytes, matching the byte accounting the simulator's link
  /// model and the loadgen's bytes/s both use — and queue behind the
  /// bucket when it runs dry.  SWIM frames bypass the queue: failure
  /// detection must not starve behind a payload backlog.  The live mirror
  /// of the sim's LinkConfig egress caps.
  std::uint64_t egress_bytes_per_sec = 0;

  /// Bucket capacity in bytes (0 = derived: egress_bytes_per_sec / 20,
  /// floor 8 KiB — 50ms of credit).  One oversized frame may overdraw the
  /// bucket into debt, so the cap bounds burstiness without blocking
  /// frames larger than the capacity.
  std::uint64_t egress_burst_bytes = 0;

  /// The first cross-field problem, named by adcd's flags, or "" when the
  /// config is runnable.  Checked in every build: NodeDaemon's constructor
  /// throws std::invalid_argument on a non-empty result.
  std::string validate() const;
};

struct DaemonStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t hellos = 0;
  std::uint64_t drops_unroutable = 0;  // sends to a node we cannot reach
  std::uint64_t drops_corrupt = 0;     // connections killed on bad frames
  std::uint64_t peer_resets = 0;       // connections lost to a hard reset / error
  std::uint64_t peer_closes = 0;       // connections closed in order
  std::uint64_t bodies_verified = 0;   // payload samples matching our derivation
  std::uint64_t body_verify_failures = 0;  // mismatched sample/checksum, frame dropped
  std::uint64_t payload_bytes_out = 0;     // sum of payload_bytes over sent frames
  std::uint64_t payload_bytes_in = 0;      // sum of payload_bytes over verified frames
  std::uint64_t egress_paced_frames = 0;   // frames that waited in the egress queue
  std::uint64_t egress_paced_bytes = 0;    // accounted bytes of those frames
  std::uint64_t egress_dropped_frames = 0; // paced frames whose target died queued
};

class NodeDaemon final : public sim::Transport {
 public:
  explicit NodeDaemon(DaemonConfig config);
  ~NodeDaemon() override;

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  /// Binds the listener.  Returns the bound port, or 0 with a diagnostic
  /// in `error`.  Must be called before run().
  std::uint16_t bind(std::string* error);

  /// Replaces the peer endpoint map.  Peers are only dialed lazily from
  /// inside run(), so a harness may bind every daemon on an ephemeral port
  /// first and distribute the resulting map before any daemon runs.
  void set_peers(std::map<NodeId, net::Endpoint> peers) { config_.peers = std::move(peers); }

  /// Serves until stop().  `tick`, when set, runs on the loop thread after
  /// every loop round (at the latest one idle poll timeout, 100-500ms,
  /// after the last) — the signal-safe hook main() uses to turn a
  /// sig_atomic_t flag into a stats dump or shutdown.
  void run();
  void set_tick(std::function<void()> tick) { tick_ = std::move(tick); }

  /// Thread- and signal-safe.
  void stop() { loop_.stop(); }

  /// Human-readable stats: transport counters plus the hosted agent's own.
  std::string stats_text() const;

  const DaemonStats& stats() const noexcept { return stats_; }
  NodeId node_id() const noexcept { return config_.node_id; }
  /// The protocol agent (never the membership wrapper around it).
  sim::Node& hosted() noexcept { return agent_ != nullptr ? *agent_ : *node_; }
  const sim::Node& hosted() const noexcept { return agent_ != nullptr ? *agent_ : *node_; }

  /// The hosted proxy's erasure tier, or nullptr (origin role, store or
  /// erasure disabled).  Loop thread only, like the stats.
  store::ErasureTier* hosted_tier() const noexcept {
    return agent_ != nullptr ? agent_->erasure_tier() : nullptr;
  }

  /// Resilience counters (retries/reconnects/degraded fetches/table
  /// invalidations) merged with the injection side when a fault plan is
  /// active.
  sim::FaultCounters fault_stats() const;
  const fault::PeerHealth& peer_health() const noexcept { return health_; }

  /// Current membership epoch (confirmed deaths + joins), 0 when the
  /// detector is off.  Atomic so harnesses on other threads can poll for
  /// an epoch bump without racing the loop thread.
  std::uint64_t membership_epoch() const noexcept {
    return membership_epoch_.load(std::memory_order_acquire);
  }

  /// Re-stripe repair items still queued on the hosted tier, snapshotted
  /// by the loop every membership drive.  Atomic for the same reason as
  /// membership_epoch: a harness can await repair quiescence (backlog 0
  /// after a death was confirmed) without racing the loop thread.
  std::uint64_t restripe_backlog() const noexcept {
    return restripe_backlog_.load(std::memory_order_acquire);
  }

  /// The failure detector, or nullptr when membership is disabled.  Only
  /// safe to read from the loop thread (or after run() returned).
  const membership::SwimDetector* detector() const noexcept {
    return member_ != nullptr ? &member_->detector() : nullptr;
  }

  /// Egress-pacing introspection (loop thread only, like the stats).
  std::size_t egress_queue_depth() const noexcept { return egress_q_.size(); }
  std::uint64_t egress_queue_bytes() const noexcept { return egress_queued_bytes_; }
  double egress_tokens() const noexcept { return egress_tokens_; }

  /// Accounted bytes exchanged per peer (out: charged at queue-to-wire
  /// time; in: payload bytes of verified frames by sender).
  const std::map<NodeId, std::uint64_t>& peer_bytes_out() const noexcept {
    return peer_bytes_out_;
  }
  const std::map<NodeId, std::uint64_t>& peer_bytes_in() const noexcept {
    return peer_bytes_in_;
  }

  // --- sim::Transport ----------------------------------------------------
  void send(sim::Message msg) override;
  util::Rng& rng() noexcept override { return rng_; }
  SimTime now() const noexcept override;

 private:
  void make_node();
  void on_listener_readable();
  void on_conn_event(int fd, bool readable, bool writable);
  void drop_conn(int fd);

  /// Hands a message to the hosted node with `path` as its journey so far.
  /// Called from inside a delivery (a proxy forwarding to itself), it
  /// queues instead, so on_message never recurses.
  void deliver(const sim::Message& msg, const std::vector<NodeId>& path);
  void dispatch(const sim::Message& msg, const std::vector<NodeId>& path);

  /// The connection on `fd`, listed for this round's flush if it had no
  /// output pending.  Frames are only queued during a round; flush_dirty()
  /// writes each listed connection once, after the round's last send.
  net::Conn& conn_to_fill(int fd);
  void flush_dirty();
  void flush_conn(int fd, net::Conn& conn);

  /// Connection that can reach `id`.  The first-ever dial to a configured
  /// peer retries for a few seconds (cluster startup ordering); later
  /// redials are single non-blocking attempts gated by the peer-health
  /// backoff.  -1 when the id is unreachable right now.
  int fd_for(NodeId id);

  /// Peer-health transitions: a peer observed down (dial/write/read
  /// failure) or back up.  Down transitions tell the agent (ADC ages out
  /// mapping entries pointing at the dead peer so lookups stop chasing it)
  /// and the failure detector.
  void note_peer_down(NodeId peer);
  void note_peer_up(NodeId peer);

  /// Classifies a dead connection's ending into reset/close counters and
  /// records the failure against any peer routed over it.
  void account_dead_conn(int fd, net::Conn::Io io);

  /// Per-poll membership driver: ticks the MemberAgent (probes, timeouts,
  /// repair rounds) and publishes the epoch and re-stripe backlog.
  void drive_membership();

  /// Fills `wire.body`/`wire.checksum` for payload-carrying frame kinds
  /// (replies get a body-pattern sample, chunk replies a chunk sample).
  /// No-op with the store disabled or for body-less kinds.
  void materialize_body(net::WireMessage& wire);

  /// Verifies a received frame's body sample against the local derivation.
  /// True (deliver) for body-less frames or with the store disabled; false
  /// means the sample or checksum mismatched and the frame must be dropped.
  bool verify_body(const net::WireMessage& wire);

  /// Egress pacing: frames the token bucket could not cover yet, in send
  /// order.  Targets are re-resolved at drain time (the peer may have died
  /// while the frame waited).
  struct PendingFrame {
    NodeId target = kInvalidNode;
    std::vector<std::uint8_t> bytes;
    std::uint64_t cost = 0;  // accounted bytes charged to the bucket
  };

  /// Token bucket: refills from wall time, hands a frame to its
  /// connection, and drains the pending queue while credit lasts.
  void egress_refill();
  void queue_to_wire(int fd, const PendingFrame& frame);
  void drain_egress();
  std::uint64_t egress_burst() const noexcept;

  /// Counts one frame queued to `target`, charged `cost` accounted bytes.
  void count_frame_out(NodeId target, std::uint64_t cost);

  DaemonConfig config_;
  util::Rng rng_;
  std::chrono::steady_clock::time_point start_;

  fault::PeerHealth health_;
  std::unique_ptr<fault::FaultyNetwork> chaos_;  // null without a fault plan
  sim::FaultCounters fault_stats_;
  std::set<NodeId> dialed_before_;  // peers that had their startup dial

  std::atomic<std::uint64_t> membership_epoch_{0};
  std::atomic<std::uint64_t> restripe_backlog_{0};

  store::PayloadStorePtr store_;  // null with the payload store disabled

  std::unique_ptr<sim::Node> node_;  // receives deliveries: agent, wrapper or origin
  sim::ProxyAgent* agent_ = nullptr;           // proxy roles: the protocol agent
  membership::MemberAgent* member_ = nullptr;  // membership on: the wrapper
  net::EventLoop loop_;
  int listener_ = -1;
  std::map<int, std::unique_ptr<net::Conn>> conns_;
  std::map<NodeId, int> routes_;  // node id -> connection fd

  /// Connections with output queued this round, each listed once;
  /// `flushing_` is the pass flush_dirty() is writing.
  std::vector<int> dirty_;
  std::vector<int> flushing_;

  /// Reused frame buffers: inbound frames decode into rx_, outbound
  /// frames are built in tx_, so neither allocates once warm.
  net::Frame rx_;
  net::WireMessage tx_;

  /// Self-addressed messages queue here and drain in delivery order, so a
  /// proxy forwarding to itself never recurses through on_message.
  std::deque<net::WireMessage> local_;
  bool draining_ = false;

  /// Journey path of the delivery currently executing; stamped onto every
  /// frame that delivery sends.
  std::vector<NodeId> current_path_;

  std::deque<PendingFrame> egress_q_;
  std::uint64_t egress_queued_bytes_ = 0;
  double egress_tokens_ = 0.0;
  SimTime egress_last_refill_ = 0;  // microseconds, transport clock

  std::map<NodeId, std::uint64_t> peer_bytes_out_;
  std::map<NodeId, std::uint64_t> peer_bytes_in_;

  std::function<void()> tick_;
  DaemonStats stats_;
};

}  // namespace adc::server
