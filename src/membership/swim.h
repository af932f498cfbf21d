// SWIM-style failure detection over sim::Transport.
//
// One detector instance per member runs the classic probe cycle (Das,
// Gupta & Motivala, "SWIM: Scalable Weakly-consistent Infection-style
// Process Group Membership Protocol"):
//
//   ping ── ack?ꟷ no ──> ping-req via k relays ── ack? ── no ──> suspect
//   suspect ── refutation (kSwimAlive, higher incarnation)? ── no ──> dead
//
// scaled down to this system's cluster sizes: suspicion and death are
// broadcast to every member instead of piggybacked gossip, which for the
// paper's 5-10 proxies costs less than the bookkeeping it replaces.
//
// Determinism: all timing comes from Transport::now() fed through tick();
// all randomness (probe order, relay choice) draws from a *private* seeded
// RNG, never the transport's — exactly like fault::FaultPlan — so enabling
// the detector cannot perturb protocol-level random choices, and a
// zero-churn simulation stays bit-identical to a detector-free one.
//
// Rejoin: dead members keep receiving slow probes (every
// `dead_probe_interval`), so after a partition heals the two sides
// re-learn each other through direct evidence.  Direct evidence (a message
// from the member itself) always rejoins regardless of incarnation —
// restarted daemons come back at incarnation 0 and must not be ignored.
//
// The membership *epoch* counts confirmed transitions (deaths + joins);
// consumers recompute owner maps / prune tables when it advances.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/message.h"
#include "sim/transport.h"
#include "util/rng.h"
#include "util/types.h"

namespace adc::membership {

enum class PeerState : std::uint8_t {
  kAlive,
  kSuspect,
  kDead,
};

std::string_view peer_state_name(PeerState state) noexcept;

struct SwimConfig {
  bool enabled = false;

  /// Gap between direct probes (one member probed per slot, round-robin
  /// over a privately shuffled order).  Units are the transport's clock:
  /// sim ticks under the Simulator, microseconds live.
  SimTime ping_interval = 200;

  /// Direct-probe wait before escalating to indirect ping-reqs.
  SimTime ack_timeout = 100;

  /// Indirect wait before raising a suspicion.
  SimTime indirect_timeout = 100;

  /// Suspicion age at which the member is declared dead.
  SimTime suspect_timeout = 600;

  /// Slow-probe gap toward members already declared dead (rejoin path).
  SimTime dead_probe_interval = 1600;

  /// Private RNG seed (never the transport's stream).
  std::uint64_t seed = 0x5317a11fULL;
};

struct SwimStats {
  std::uint64_t pings_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t ping_reqs_sent = 0;
  std::uint64_t relayed_probes = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t refutations = 0;
  std::uint64_t deaths = 0;
  std::uint64_t joins = 0;
};

class SwimDetector {
 public:
  using MemberCallback = std::function<void(NodeId)>;

  /// `peers` is the fixed candidate membership, excluding `self` (it is
  /// filtered out defensively).  Members start alive at incarnation 0.
  SwimDetector(NodeId self, std::vector<NodeId> peers, SwimConfig config);

  /// Fired on a confirmed death / rejoin (after the epoch advanced).
  void set_on_death(MemberCallback cb) { on_death_ = std::move(cb); }
  void set_on_join(MemberCallback cb) { on_join_ = std::move(cb); }

  /// Fired on *any* detector transition (suspicion raised or cleared,
  /// death, join, refutation) — the repair scheduler arms on this.
  void set_on_transition(std::function<void()> cb) { on_transition_ = std::move(cb); }

  /// Drives probes and timeouts; call at a cadence finer than the
  /// configured timeouts.  Safe to call with a non-advancing clock.
  void tick(sim::Transport& net, SimTime now);

  /// Handles one SWIM message (caller routes on sim::is_swim_kind).
  void on_message(sim::Transport& net, const sim::Message& msg);

  /// Direct out-of-band evidence from the I/O layer (PeerHealth signals):
  /// a successful exchange proves liveness; a dial/write failure is
  /// stronger than a missing ack and raises a suspicion immediately.
  void observe_alive(NodeId peer);
  void observe_failure(sim::Transport& net, NodeId peer, SimTime now);

  PeerState state(NodeId peer) const noexcept;
  std::uint64_t incarnation(NodeId peer) const noexcept;
  std::uint64_t self_incarnation() const noexcept { return self_incarnation_; }

  /// Confirmed membership transitions so far (deaths + joins).
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Sorted ids of members currently not dead (suspects included —
  /// suspicion is a hypothesis, not a verdict).
  std::vector<NodeId> alive_peers() const;

  const SwimStats& stats() const noexcept { return stats_; }
  const SwimConfig& config() const noexcept { return config_; }

  /// One line per peer: "3:alive/0" style, for stats dumps.
  std::string describe_peers() const;

 private:
  struct Peer {
    PeerState state = PeerState::kAlive;
    std::uint64_t incarnation = 0;
    SimTime suspect_since = 0;
    SimTime next_dead_probe = 0;
  };

  enum class ProbeStage : std::uint8_t { kDirect, kIndirect };
  struct Probe {
    RequestId seq = 0;
    ProbeStage stage = ProbeStage::kDirect;
    SimTime sent_at = 0;
  };

  Peer* peer(NodeId id) noexcept;
  const Peer* peer(NodeId id) const noexcept;

  void send_ping(sim::Transport& net, NodeId target, NodeId on_behalf_of);
  void start_probe(sim::Transport& net, NodeId target, SimTime now);
  void escalate_probe(sim::Transport& net, NodeId target, Probe& probe, SimTime now);
  void suspect(sim::Transport& net, NodeId target, SimTime now);
  void declare_dead(NodeId target);
  void mark_alive(NodeId peer, std::uint64_t incarnation, bool direct);
  void broadcast(sim::Transport& net, sim::MessageKind kind, NodeId subject,
                 std::uint64_t incarnation);
  void refute(sim::Transport& net, std::uint64_t offending_incarnation);
  NodeId next_probe_target();
  void transition();

  NodeId self_;
  SwimConfig config_;
  util::Rng rng_;  // private stream, like FaultyNetwork's

  std::map<NodeId, Peer> members_;  // ordered => deterministic iteration
  std::vector<NodeId> probe_order_;
  std::size_t probe_cursor_ = 0;
  std::map<NodeId, Probe> probes_;  // outstanding, one per target

  SimTime next_probe_at_ = 0;
  RequestId next_seq_ = 1;
  std::uint64_t self_incarnation_ = 0;
  std::uint64_t epoch_ = 0;

  MemberCallback on_death_;
  MemberCallback on_join_;
  std::function<void()> on_transition_;
  SwimStats stats_;
};

}  // namespace adc::membership
