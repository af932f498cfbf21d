#include "membership/member_agent.h"

#include "store/erasure_tier.h"

namespace adc::membership {

namespace {

/// Max resolver opinions offered to each peer per repair round.
constexpr std::size_t kRepairBatch = 64;

SwimConfig derive_swim_config(SwimConfig swim, NodeId self) {
  // Same per-node derivation the daemon uses for its I/O rng: distinct
  // private streams per member, all reproducible from one base seed.
  swim.seed = swim.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(self) + 1;
  return swim;
}

}  // namespace

MemberAgent::MemberAgent(std::unique_ptr<sim::ProxyAgent> inner, std::vector<NodeId> peers,
                         MembershipConfig config)
    : sim::Node(inner->id(), inner->kind(), inner->name()),
      inner_(std::move(inner)),
      config_(config),
      detector_(id(), std::move(peers), derive_swim_config(config.swim, inner_->id())),
      repair_(config.repair) {
  detector_.set_on_death([this](NodeId peer) { inner_->on_peer_dead(peer); });
  detector_.set_on_join([this](NodeId peer) { inner_->on_peer_joined(peer); });
  // Transitions can happen inside on_message, where no tick clock reading
  // is in scope; latch and arm the repair budget at the next tick.
  detector_.set_on_transition([this] { transition_pending_ = true; });
}

void MemberAgent::on_message(sim::Transport& net, const sim::Message& msg) {
  if (sim::is_swim_kind(msg.kind)) {
    detector_.on_message(net, msg);
    return;
  }
  inner_->on_message(net, msg);
}

void MemberAgent::tick(sim::Transport& net, SimTime now) {
  detector_.tick(net, now);
  if (transition_pending_) {
    repair_.note_transition(now);
    transition_pending_ = false;
  }
  store::ErasureTier* tier = inner_->erasure_tier();
  if (repair_.next_round(now)) {
    for (const NodeId peer : detector_.alive_peers()) {
      inner_->send_repair(net, peer, kRepairBatch);
    }
    if (tier != nullptr) tier->restripe_round(net);
  }
  // Re-stripe work outlives the fixed per-transition round budget (a big
  // directory takes many byte-budgeted rounds to re-home), so keep the
  // scheduler armed while any repair item is queued.  Termination is
  // guaranteed: every item either acks or abandons after its retries.
  if (!repair_.armed() && tier != nullptr && tier->restripe_pending()) {
    repair_.note_transition(now);
  }
}

bool MemberAgent::restripe_pending() const {
  const store::ErasureTier* tier = inner_->erasure_tier();
  return tier != nullptr && tier->restripe_pending();
}

}  // namespace adc::membership
