#include "proxy/hashing_proxy.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace adc::proxy {

using sim::Message;
using sim::MessageKind;
using sim::Transport;

HashingProxy::HashingProxy(NodeId id, std::string name,
                           std::shared_ptr<const OwnerMap> owners, NodeId origin,
                           std::size_t cache_capacity, cache::Policy policy,
                           bool entry_caching)
    : ProxyAgent(id, std::move(name)),
      owners_(std::move(owners)),
      origin_(origin),
      cache_capacity_(cache_capacity),
      policy_(policy),
      cache_(cache::make_cache(cache_capacity, policy)),
      entry_caching_(entry_caching) {
  assert(owners_ != nullptr);
}

void HashingProxy::enable_store(const store::StoreContext& ctx) {
  assert(ctx.store != nullptr);
  store_ = ctx.store;
  store::PayloadStorePtr sizer = store_;
  cache_ = cache::make_sized_cache(
      cache_capacity_, policy_, store_->config().byte_budget,
      [sizer](ObjectId object) { return sizer->size_of(object); });
  if (store_->config().erasure.enabled) {
    erasure_ = std::make_unique<store::ErasureTier>(id(), store_, ctx.proxies);
  }
}

void HashingProxy::on_message(Transport& net, const Message& msg) {
  if (sim::is_store_kind(msg.kind)) {
    if (erasure_ == nullptr) return;  // store traffic with no tier: drop
    switch (msg.kind) {
      case MessageKind::kStripeStore:
        erasure_->on_stripe_store(msg);
        break;
      case MessageKind::kChunkRequest:
        erasure_->on_chunk_request(net, msg);
        break;
      case MessageKind::kChunkReply:
        handle_chunk_reply(net, msg);
        break;
      case MessageKind::kRestripeOffer:
        erasure_->on_restripe_offer(net, msg);
        break;
      case MessageKind::kRestripeAck:
        erasure_->on_restripe_ack(msg);
        break;
      default:
        break;
    }
    return;
  }
  if (sim::is_repair_kind(msg.kind)) return;  // anti-entropy is ADC's alone
  if (msg.kind == MessageKind::kRequest) {
    receive_request(net, msg);
  } else {
    receive_reply(net, msg);
  }
}

void HashingProxy::set_owner_map_factory(OwnerMapFactory factory,
                                         std::vector<NodeId> members) {
  factory_ = std::move(factory);
  members_ = std::move(members);
  std::sort(members_.begin(), members_.end());
}

void HashingProxy::on_peer_dead(NodeId peer) {
  if (erasure_ != nullptr) erasure_->handle_peer_dead(peer);
  if (!factory_ || peer == id()) return;
  const auto it = std::find(members_.begin(), members_.end(), peer);
  if (it == members_.end()) return;
  members_.erase(it);
  if (members_.empty()) members_.push_back(id());
  rebuild_owners();
}

void HashingProxy::on_peer_joined(NodeId peer) {
  if (erasure_ != nullptr) erasure_->handle_peer_joined(peer);
  if (!factory_) return;
  const auto pos = std::lower_bound(members_.begin(), members_.end(), peer);
  if (pos != members_.end() && *pos == peer) return;
  members_.insert(pos, peer);
  rebuild_owners();
}

void HashingProxy::rebuild_owners() {
  std::shared_ptr<const OwnerMap> fresh = factory_(members_);
  assert(fresh != nullptr);
  ObjectId moved = 0;
  for (ObjectId object = 0; object < kReshuffleSample; ++object) {
    if (owners_->owner(object) != fresh->owner(object)) ++moved;
  }
  owners_ = std::move(fresh);
  ++stats_.membership_epoch;
  const double reshuffled = static_cast<double>(moved) / static_cast<double>(kReshuffleSample);
  stats_.max_reshuffle_fraction = std::max(stats_.max_reshuffle_fraction, reshuffled);
}

sim::ProxySnapshot HashingProxy::snapshot(bool with_contents) const {
  sim::ProxySnapshot snap;
  snap.name = name();
  snap.requests_received = stats_.requests_received;
  snap.local_hits = stats_.local_hits;
  snap.cached_objects = cache_->size();
  snap.payload_bytes_served = stats_.payload_bytes_served;
  snap.payload_bytes_fetched = stats_.payload_bytes_fetched;
  snap.max_reshuffle_fraction = stats_.max_reshuffle_fraction;
  if (with_contents) snap.cached_ids = cache_->eviction_order();
  return snap;
}

void HashingProxy::send_reply_toward_client(Transport& net, Message reply, NodeId entry) {
  reply.kind = MessageKind::kReply;
  reply.sender = id();
  // Entry-caching mode routes the reply through the entry proxy so it can
  // cache too; the paper's CARP baseline bypasses it.
  reply.target = (entry_caching_ && entry != kInvalidNode) ? entry : reply.client;
  net.send(std::move(reply));
}

void HashingProxy::receive_request(Transport& net, const Message& msg) {
  ++stats_.requests_received;
  const ObjectId object = msg.object;
  const bool from_client = msg.sender == msg.client;

  if (cache_->lookup(object)) {
    ++stats_.local_hits;
    if (!from_client) ++stats_.owned_objects_served;
    Message reply = msg;
    reply.resolver = id();
    reply.cached = true;
    reply.proxy_hit = true;
    reply.version = cache_->version(object);
    reply.payload_bytes = size_of(object);
    stats_.payload_bytes_served += reply.payload_bytes;
    // A hit at the owner is returned directly to the client (bypassing the
    // entry proxy) unless entry caching is on; a hit at the entry proxy
    // goes straight back anyway.
    send_reply_toward_client(net, std::move(reply), from_client ? kInvalidNode : msg.sender);
    return;
  }

  const NodeId owner = owners_->owner(object);
  if (from_client && owner != id()) {
    // Entry proxy miss: hand the request to the hash owner.
    ++stats_.forwards_to_owner;
    Message forward = msg;
    forward.sender = id();
    forward.target = owner;
    forward.forward_count = msg.forward_count + 1;
    net.send(std::move(forward));
    return;
  }

  // We are the owner (or the entry proxy owns the object): resolve at the
  // origin and remember where the reply must go.
  if (!pending_.contains(msg.request_id)) {
    pending_.push_back(
        Route{msg.request_id, msg.client, from_client ? kInvalidNode : msg.sender});
  }

  // Degraded-read window: once SWIM confirmed a member dead, prefer
  // reconstructing the object from surviving stripe chunks over refetching
  // it from the origin.  The route stays pending; handle_chunk_reply either
  // answers it or falls back to the origin.
  if (erasure_ != nullptr && erasure_->has_dead_peer() &&
      erasure_->begin_recovery(net, msg)) {
    return;
  }

  ++stats_.forwards_to_origin;
  Message forward = msg;
  forward.sender = id();
  forward.target = origin_;
  net.send(std::move(forward));
}

void HashingProxy::handle_chunk_reply(Transport& net, const Message& msg) {
  const store::ErasureTier::Resolution res = erasure_->on_chunk_reply(msg);
  switch (res.outcome) {
    case store::ErasureTier::Outcome::kNone:
    case store::ErasureTier::Outcome::kPending:
      return;
    case store::ErasureTier::Outcome::kRecovered: {
      const auto slot = pending_.find(res.request.request_id);
      if (slot == pending_.kNil) return;  // route gone (e.g. flushed): drop
      const Route route = pending_.erase(slot);
      ++stats_.degraded_reads_served;
      Message reply = res.request;
      reply.resolver = id();
      reply.cached = true;
      reply.proxy_hit = true;
      reply.degraded = true;
      reply.hops = msg.hops;
      reply.payload_bytes = res.object_bytes;
      reply.version = cache_->version(reply.object);
      stats_.payload_bytes_served += reply.payload_bytes;
      // The reconstructed object is as good as a fetched one: admit it so
      // subsequent requests hit locally instead of re-reconstructing.
      cache_->insert(reply.object, reply.version);
      send_reply_toward_client(net, std::move(reply), route.entry);
      return;
    }
    case store::ErasureTier::Outcome::kFailed: {
      // Not enough surviving chunks: fall back to the origin.  The pending
      // route is still in place, so the origin reply routes normally.
      ++stats_.forwards_to_origin;
      Message forward = res.request;
      forward.sender = id();
      forward.target = origin_;
      net.send(std::move(forward));
      return;
    }
  }
}

void HashingProxy::receive_reply(Transport& net, const Message& msg) {
  const auto slot = pending_.find(msg.request_id);
  if (slot != pending_.kNil) {
    // Origin answered our fetch: cache as owner, then route.
    const Route route = pending_.erase(slot);
    stats_.payload_bytes_fetched += msg.payload_bytes;
    cache_->insert(msg.object, msg.version);
    if (erasure_ != nullptr) erasure_->stripe_object(net, msg.object);
    Message reply = msg;
    reply.resolver = id();
    reply.cached = true;
    send_reply_toward_client(net, std::move(reply), route.entry);
    return;
  }

  // No pending route.  In entry-caching mode this is a relayed reply
  // passing through the entry proxy: cache it.  Otherwise it is a degraded
  // origin reply — the transport rerouted a forward around a dead owner,
  // so the origin answered a fetch we never initiated.  Relay it to the
  // client without caching: this proxy does not own the object, and
  // caching it would shadow the hash allocation once the owner returns.
  if (entry_caching_) {
    cache_->insert(msg.object, msg.version);
  } else {
    ++stats_.degraded_replies;
  }
  Message reply = msg;
  reply.sender = id();
  reply.target = msg.client;
  net.send(std::move(reply));
}

}  // namespace adc::proxy
