#include "membership/swim.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/logging.h"

namespace adc::membership {

using sim::Message;
using sim::MessageKind;
using sim::Transport;

std::string_view peer_state_name(PeerState state) noexcept {
  switch (state) {
    case PeerState::kAlive:
      return "alive";
    case PeerState::kSuspect:
      return "suspect";
    case PeerState::kDead:
      return "dead";
  }
  return "alive";
}

SwimDetector::SwimDetector(NodeId self, std::vector<NodeId> peers, SwimConfig config)
    : self_(self), config_(config), rng_(config.seed) {
  for (const NodeId peer : peers) {
    if (peer == self_ || peer == kInvalidNode) continue;
    members_.emplace(peer, Peer{});
  }
  for (const auto& [id, peer] : members_) probe_order_.push_back(id);
  rng_.shuffle(probe_order_);
}

SwimDetector::Peer* SwimDetector::peer(NodeId id) noexcept {
  const auto it = members_.find(id);
  return it == members_.end() ? nullptr : &it->second;
}

const SwimDetector::Peer* SwimDetector::peer(NodeId id) const noexcept {
  const auto it = members_.find(id);
  return it == members_.end() ? nullptr : &it->second;
}

PeerState SwimDetector::state(NodeId id) const noexcept {
  const Peer* p = peer(id);
  return p != nullptr ? p->state : PeerState::kAlive;
}

std::uint64_t SwimDetector::incarnation(NodeId id) const noexcept {
  const Peer* p = peer(id);
  return p != nullptr ? p->incarnation : 0;
}

std::vector<NodeId> SwimDetector::alive_peers() const {
  std::vector<NodeId> out;
  for (const auto& [id, p] : members_) {
    if (p.state != PeerState::kDead) out.push_back(id);
  }
  return out;  // members_ is ordered, so this is sorted
}

std::string SwimDetector::describe_peers() const {
  std::string out;
  for (const auto& [id, p] : members_) {
    if (!out.empty()) out += " ";
    out += std::to_string(id) + ":" + std::string(peer_state_name(p.state)) + "/" +
           std::to_string(p.incarnation);
  }
  return out;
}

void SwimDetector::transition() {
  if (on_transition_) on_transition_();
}

void SwimDetector::send_ping(Transport& net, NodeId target, NodeId on_behalf_of) {
  Message ping;
  ping.kind = MessageKind::kSwimPing;
  ping.request_id = next_seq_++;
  ping.sender = self_;
  ping.target = target;
  ping.resolver = target;  // the subject being probed
  ping.version = self_incarnation_;
  ping.client = on_behalf_of;
  ++stats_.pings_sent;
  net.send(std::move(ping));
}

void SwimDetector::start_probe(Transport& net, NodeId target, SimTime now) {
  probes_[target] = Probe{next_seq_, ProbeStage::kDirect, now};
  send_ping(net, target, kInvalidNode);
}

NodeId SwimDetector::next_probe_target() {
  // Round-robin over a privately shuffled order (SWIM's randomized but
  // fair probe schedule); reshuffle on each wrap.
  for (std::size_t scanned = 0; scanned < probe_order_.size(); ++scanned) {
    if (probe_cursor_ >= probe_order_.size()) {
      probe_cursor_ = 0;
      rng_.shuffle(probe_order_);
    }
    const NodeId candidate = probe_order_[probe_cursor_++];
    const Peer* p = peer(candidate);
    if (p == nullptr || p->state == PeerState::kDead) continue;
    if (probes_.count(candidate) != 0) continue;  // probe already outstanding
    return candidate;
  }
  return kInvalidNode;
}

void SwimDetector::escalate_probe(Transport& net, NodeId target, Probe& probe, SimTime now) {
  std::vector<NodeId> relays;
  for (const auto& [id, p] : members_) {
    if (id != target && p.state != PeerState::kDead) relays.push_back(id);
  }
  rng_.shuffle(relays);
  // Relays asked to probe indirectly when a direct probe times out.
  constexpr std::size_t kPingReqFanout = 2;
  if (relays.size() > kPingReqFanout) relays.resize(kPingReqFanout);
  probe.stage = ProbeStage::kIndirect;
  probe.sent_at = now;
  if (relays.empty()) return;  // nobody to ask: the indirect timeout decides
  for (const NodeId relay : relays) {
    Message req;
    req.kind = MessageKind::kSwimPingReq;
    req.request_id = next_seq_++;
    req.sender = self_;
    req.target = relay;
    req.resolver = target;  // probe this member for me
    req.version = self_incarnation_;
    ++stats_.ping_reqs_sent;
    net.send(std::move(req));
  }
}

void SwimDetector::suspect(Transport& net, NodeId target, SimTime now) {
  Peer* p = peer(target);
  if (p == nullptr || p->state != PeerState::kAlive) return;
  p->state = PeerState::kSuspect;
  p->suspect_since = now;
  ++stats_.suspicions;
  ADC_LOG_INFO << "swim[" << self_ << "]: suspecting peer " << target;
  // Broadcast so every member starts the same countdown and the subject
  // itself gets the chance to refute with a higher incarnation.
  broadcast(net, MessageKind::kSwimSuspect, target, p->incarnation);
  transition();
}

void SwimDetector::declare_dead(NodeId target) {
  Peer* p = peer(target);
  if (p == nullptr || p->state == PeerState::kDead) return;
  p->state = PeerState::kDead;
  probes_.erase(target);
  ++epoch_;
  ++stats_.deaths;
  ADC_LOG_WARN << "swim[" << self_ << "]: peer " << target << " declared dead (epoch "
               << epoch_ << ")";
  transition();
  if (on_death_) on_death_(target);
}

void SwimDetector::mark_alive(NodeId id, std::uint64_t incarnation, bool direct) {
  Peer* p = peer(id);
  if (p == nullptr) return;
  if (p->state == PeerState::kDead) {
    // Rejoin requires direct evidence — a message from the member itself —
    // and overrides incarnation comparison: a restarted daemon comes back
    // at incarnation 0.
    if (!direct) return;
    p->state = PeerState::kAlive;
    p->incarnation = incarnation;
    p->suspect_since = 0;
    ++epoch_;
    ++stats_.joins;
    ADC_LOG_INFO << "swim[" << self_ << "]: peer " << id << " rejoined (epoch " << epoch_
                 << ")";
    transition();
    if (on_join_) on_join_(id);
    return;
  }
  if (incarnation > p->incarnation) p->incarnation = incarnation;
  if (p->state == PeerState::kSuspect) {
    // Liveness evidence clears suspicion (we converge faster than classic
    // SWIM's strictly-higher-incarnation rule; fine at this cluster size).
    p->state = PeerState::kAlive;
    transition();
  }
}

void SwimDetector::broadcast(Transport& net, MessageKind kind, NodeId subject,
                             std::uint64_t incarnation) {
  for (const auto& [id, p] : members_) {
    if (p.state == PeerState::kDead && id != subject) continue;
    Message msg;
    msg.kind = kind;
    msg.request_id = next_seq_++;
    msg.sender = self_;
    msg.target = id;
    msg.resolver = subject;
    msg.version = incarnation;
    net.send(std::move(msg));
  }
}

void SwimDetector::refute(Transport& net, std::uint64_t offending_incarnation) {
  self_incarnation_ = std::max(self_incarnation_, offending_incarnation) + 1;
  ++stats_.refutations;
  ADC_LOG_INFO << "swim[" << self_ << "]: refuting suspicion, incarnation now "
               << self_incarnation_;
  broadcast(net, MessageKind::kSwimAlive, self_, self_incarnation_);
  transition();
}

void SwimDetector::observe_alive(NodeId id) { mark_alive(id, 0, /*direct=*/true); }

void SwimDetector::observe_failure(Transport& net, NodeId id, SimTime now) {
  // A dial/write failure is direct negative evidence — skip the probe wait
  // and raise the suspicion immediately (the subject can still refute).
  suspect(net, id, now);
}

void SwimDetector::on_message(Transport& net, const Message& msg) {
  switch (msg.kind) {
    case MessageKind::kSwimPing: {
      // The prober proves itself alive at its own incarnation.
      mark_alive(msg.sender, msg.version, /*direct=*/true);
      Message ack;
      ack.kind = MessageKind::kSwimAck;
      ack.request_id = msg.request_id;
      ack.sender = self_;
      ack.target = msg.sender;
      ack.resolver = self_;  // subject of the ack: this member
      ack.version = self_incarnation_;
      ack.client = msg.client;  // original prober of a relayed ping
      ++stats_.acks_sent;
      net.send(std::move(ack));
      break;
    }
    case MessageKind::kSwimAck: {
      // Direct evidence about the sender; indirect about the subject when
      // the ack was relayed on our behalf.
      mark_alive(msg.sender, msg.sender == msg.resolver ? msg.version : 0, /*direct=*/true);
      if (msg.resolver != msg.sender) {
        mark_alive(msg.resolver, msg.version, /*direct=*/false);
      }
      probes_.erase(msg.resolver);
      if (msg.client != kInvalidNode && msg.client != self_) {
        // We relayed the ping; forward the proof to the original prober.
        Message fwd = msg;
        fwd.sender = self_;
        fwd.target = msg.client;
        fwd.client = kInvalidNode;
        net.send(std::move(fwd));
      }
      break;
    }
    case MessageKind::kSwimPingReq: {
      mark_alive(msg.sender, msg.version, /*direct=*/true);
      ++stats_.relayed_probes;
      send_ping(net, msg.resolver, /*on_behalf_of=*/msg.sender);
      break;
    }
    case MessageKind::kSwimSuspect: {
      if (msg.resolver == self_) {
        refute(net, msg.version);
        break;
      }
      mark_alive(msg.sender, 0, /*direct=*/true);
      Peer* p = peer(msg.resolver);
      if (p != nullptr && p->state == PeerState::kAlive && msg.version >= p->incarnation) {
        p->state = PeerState::kSuspect;
        p->suspect_since = net.now();
        ++stats_.suspicions;
        transition();
      }
      break;
    }
    case MessageKind::kSwimAlive: {
      // Only the subject itself broadcasts kSwimAlive, so sender evidence
      // and subject evidence coincide.
      mark_alive(msg.resolver, msg.version, /*direct=*/msg.sender == msg.resolver);
      break;
    }
    case MessageKind::kSwimDead: {
      if (msg.resolver == self_) {
        refute(net, msg.version);
        break;
      }
      mark_alive(msg.sender, 0, /*direct=*/true);
      declare_dead(msg.resolver);  // no re-broadcast: the origin already did
      break;
    }
    default:
      assert(false && "non-SWIM message routed to SwimDetector");
      break;
  }
}

void SwimDetector::tick(Transport& net, SimTime now) {
  // 1. Outstanding-probe timeouts.
  std::vector<NodeId> escalate;
  std::vector<NodeId> timed_out;
  for (const auto& [target, probe] : probes_) {
    if (probe.stage == ProbeStage::kDirect && now - probe.sent_at >= config_.ack_timeout) {
      escalate.push_back(target);
    } else if (probe.stage == ProbeStage::kIndirect &&
               now - probe.sent_at >= config_.indirect_timeout) {
      timed_out.push_back(target);
    }
  }
  for (const NodeId target : escalate) {
    const auto it = probes_.find(target);
    if (it != probes_.end()) escalate_probe(net, target, it->second, now);
  }
  for (const NodeId target : timed_out) {
    probes_.erase(target);
    suspect(net, target, now);
  }

  // 2. Suspicion expiry.
  std::vector<NodeId> expired;
  for (const auto& [id, p] : members_) {
    if (p.state == PeerState::kSuspect && now - p.suspect_since >= config_.suspect_timeout) {
      expired.push_back(id);
    }
  }
  for (const NodeId id : expired) {
    broadcast(net, MessageKind::kSwimDead, id, members_.at(id).incarnation);
    declare_dead(id);
    members_.at(id).next_dead_probe = now + config_.dead_probe_interval;
  }

  // 3. The periodic direct probe.
  if (now >= next_probe_at_) {
    const NodeId target = next_probe_target();
    if (target != kInvalidNode) start_probe(net, target, now);
    next_probe_at_ = now + config_.ping_interval;
  }

  // 4. Slow probes toward dead members: the rejoin path after a partition
  // heals or a daemon restarts.  Acks are not tracked — any direct message
  // from a dead member rejoins it.
  for (auto& [id, p] : members_) {
    if (p.state != PeerState::kDead) continue;
    if (now >= p.next_dead_probe) {
      send_ping(net, id, kInvalidNode);
      p.next_dead_probe = now + config_.dead_probe_interval;
    }
  }
}

}  // namespace adc::membership
