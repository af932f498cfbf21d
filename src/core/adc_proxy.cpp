#include "core/adc_proxy.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/logging.h"

namespace adc::core {

using sim::Message;
using sim::MessageKind;
using sim::Transport;

AdcProxy::AdcProxy(NodeId id, std::string name, const AdcConfig& config,
                   std::vector<NodeId> proxies, NodeId origin)
    : ProxyAgent(id, std::move(name)),
      config_(config),
      tables_(config),
      proxies_(std::move(proxies)),
      origin_(origin) {
  assert(!proxies_.empty());
  if (!config_.selective_caching) {
    lru_cache_ = cache::make_cache(config_.caching_table_size, cache::Policy::kLru);
  }
}

void AdcProxy::flush() {
  tables_.clear();
  if (lru_cache_ != nullptr) lru_cache_->clear();
}

void AdcProxy::enable_store(const store::StoreContext& ctx) {
  assert(ctx.store != nullptr);
  store_ = ctx.store;
  if (!config_.selective_caching) {
    store::PayloadStorePtr sizer = store_;
    lru_cache_ = cache::make_sized_cache(
        config_.caching_table_size, cache::Policy::kLru, store_->config().byte_budget,
        [sizer](ObjectId object) { return sizer->size_of(object); });
  }
  if (store_->config().erasure.enabled) {
    erasure_ = std::make_unique<store::ErasureTier>(id(), store_, ctx.proxies);
  }
}

void AdcProxy::warm_cache(ObjectId object, std::uint64_t version) {
  if (config_.selective_caching) {
    tables_.warm_cache(object, id(), local_time_, version);
    return;
  }
  lru_cache_->insert(object, version);
}

void AdcProxy::on_peer_unreachable(NodeId peer) {
  stats_.peer_invalidations += tables_.invalidate_location(peer);
}

void AdcProxy::on_peer_dead(NodeId peer) {
  if (peer == id()) return;
  if (erasure_ != nullptr) erasure_->handle_peer_dead(peer);
  proxies_.erase(std::remove(proxies_.begin(), proxies_.end(), peer), proxies_.end());
  if (proxies_.empty()) proxies_.push_back(id());
  on_peer_unreachable(peer);
}

void AdcProxy::on_peer_joined(NodeId peer) {
  if (erasure_ != nullptr) erasure_->handle_peer_joined(peer);
  const auto pos = std::lower_bound(proxies_.begin(), proxies_.end(), peer);
  if (pos != proxies_.end() && *pos == peer) return;
  proxies_.insert(pos, peer);
}

sim::ProxySnapshot AdcProxy::snapshot(bool with_contents) const {
  sim::ProxySnapshot snap;
  snap.name = name();
  snap.requests_received = stats_.requests_received;
  snap.local_hits = stats_.local_hits;
  snap.cached_objects =
      config_.selective_caching ? tables_.caching().size() : stats_.cache_admissions;
  snap.table_entries = tables_.total_entries();
  snap.payload_bytes_served = stats_.payload_bytes_served;
  snap.payload_bytes_fetched = stats_.payload_bytes_fetched;
  snap.entries_invalidated = stats_.peer_invalidations;
  if (with_contents && config_.selective_caching) {
    tables_.caching().for_each(
        [&snap](const cache::TableEntry& entry) { snap.cached_ids.push_back(entry.object); });
  }
  return snap;
}

void AdcProxy::seed_location(ObjectId object, NodeId location, std::uint64_t claim) {
  tables_.update_entry(object, location, local_time_, std::nullopt, claim);
}

void AdcProxy::send_repair(sim::Transport& net, NodeId peer, std::size_t batch) {
  if (peer == id() || batch == 0) return;
  std::size_t sent = 0;
  const auto offer = [this, &net, peer, batch, &sent](const cache::TableEntry& e) {
    if (sent >= batch || e.claim == 0) return;
    Message msg;
    msg.kind = MessageKind::kRepairOffer;
    msg.object = e.object;
    msg.sender = id();
    msg.target = peer;
    msg.resolver = e.location;
    msg.claim = e.claim;
    net.send(std::move(msg));
    ++sent;
    ++stats_.repair_offers;
  };
  // Hottest opinions first: the caching table holds the objects this proxy
  // itself resolves, the multiple-table its directory of remote locations.
  if (tables_.has_caching_table()) tables_.caching().for_each(offer);
  tables_.multiple().for_each(offer);
}

void AdcProxy::receive_opinion(sim::Transport& net, const Message& msg) {
  const cache::TableEntry* mine = tables_.find(msg.object);
  if (mine == nullptr) return;  // unknown object: never pollute the tables
  if (mine->claim > msg.claim) {
    // Our opinion is strictly fresher — push it back once (offers only, so
    // a disagreement settles in a single exchange instead of echoing).
    if (msg.kind == MessageKind::kRepairOffer) {
      Message counter;
      counter.kind = MessageKind::kRepairReply;
      counter.object = msg.object;
      counter.sender = id();
      counter.target = msg.sender;
      counter.resolver = mine->location;
      counter.claim = mine->claim;
      net.send(std::move(counter));
      ++stats_.repair_counter_offers;
    }
    return;
  }
  if (mine->claim == msg.claim) return;  // agreement or tie: keep ours
  if (tables_.repair_location(msg.object, msg.resolver, msg.claim)) {
    ++stats_.repairs_applied;
  }
}

std::uint64_t AdcProxy::stored_version(ObjectId object, const Located& mine) const noexcept {
  if (config_.selective_caching) return mine.cached() ? mine.entry->version : 0;
  return lru_cache_->version(object);
}

bool AdcProxy::is_locally_cached(ObjectId object) const noexcept {
  if (config_.selective_caching) return tables_.is_cached(object);
  return lru_cache_->contains(object);
}

void AdcProxy::on_message(Transport& net, const Message& msg) {
  switch (msg.kind) {
    case MessageKind::kRequest:
      receive_request(net, msg);
      break;
    case MessageKind::kReply:
      receive_reply(net, msg);
      break;
    case MessageKind::kRepairOffer:
    case MessageKind::kRepairReply:
      receive_opinion(net, msg);
      break;
    case MessageKind::kStripeStore:
      if (erasure_ != nullptr) erasure_->on_stripe_store(msg);
      break;
    case MessageKind::kChunkRequest:
      if (erasure_ != nullptr) erasure_->on_chunk_request(net, msg);
      break;
    case MessageKind::kChunkReply:
      if (erasure_ != nullptr) handle_chunk_reply(net, msg);
      break;
    case MessageKind::kRestripeOffer:
      if (erasure_ != nullptr) erasure_->on_restripe_offer(net, msg);
      break;
    case MessageKind::kRestripeAck:
      if (erasure_ != nullptr) erasure_->on_restripe_ack(msg);
      break;
    default:
      // SWIM kinds are routed to the failure detector by the hosting
      // MemberAgent / NodeDaemon before reaching the agent.
      break;
  }
}

// Paper Figure 5 (Receive_Request).
void AdcProxy::receive_request(Transport& net, const Message& msg) {
  ++local_time_;
  ++stats_.requests_received;
  const ObjectId object = msg.object;
  // One lookup answers "cached?", the stored claim and the forward location.
  const Located mine = tables_.locate(object);

  if (config_.selective_caching ? mine.cached() : lru_cache_->contains(object)) {
    ++stats_.local_hits;
    if (!config_.selective_caching) lru_cache_->touch(object);
    // Resolver event: answering locally re-asserts this proxy as the
    // object's location, one claim above everything the request saw on its
    // way here (its floor) and above our own stored claim.
    const std::uint64_t claim = std::max(msg.claim, mine.claim()) + 1;
    // Read before the update, which may move the entry.
    const std::uint64_t version = stored_version(object, mine);
    tables_.update_entry(object, id(), local_time_, std::nullopt, claim);

    Message reply = msg;
    reply.kind = MessageKind::kReply;
    reply.sender = id();
    reply.target = msg.sender;
    reply.resolver = id();
    reply.cached = true;
    reply.proxy_hit = true;
    reply.version = version;
    reply.claim = claim;
    reply.payload_bytes = size_of(object);
    stats_.payload_bytes_served += reply.payload_bytes;
    net.send(std::move(reply));
    return;
  }

  // Loop detection: a request id already pending here means the random
  // walk revisited us.  push() reports that from before it stores the new
  // backwarding record.
  const bool loop = pending_.push(msg.request_id, msg.sender);

  Message forward = msg;
  forward.sender = id();
  forward.forward_count = msg.forward_count + 1;
  // Claim floor: the request accumulates the freshest claim any proxy on
  // its path stores for the object, so whoever eventually claims resolver
  // status claims strictly above every participant's current knowledge —
  // which is what makes stale-claim rejection impossible on the journey's
  // own backward path (see mapping_tables.h).
  forward.claim = std::max(msg.claim, mine.claim());

  const bool max_hops = msg.forward_count >= config_.max_forwards;
  if (loop || max_hops) {
    if (loop) ++stats_.loops_detected;
    if (max_hops) ++stats_.max_forwards_hit;
    ++stats_.forwards_origin;
    forward.target = origin_;
  } else {
    forward.target = forward_address(net, mine);
  }

  // Degraded-read window: an origin-bound search after a confirmed peer
  // death tries reconstruction from surviving stripe chunks first.  The
  // backwarding record above stays in place; handle_chunk_reply either
  // synthesizes an origin-like reply or falls through to the origin.
  if (forward.target == origin_ && erasure_ != nullptr && erasure_->has_dead_peer() &&
      erasure_->begin_recovery(net, forward)) {
    ++stats_.degraded_reads_started;
    return;
  }
  net.send(std::move(forward));
}

void AdcProxy::handle_chunk_reply(Transport& net, const Message& msg) {
  const store::ErasureTier::Resolution res = erasure_->on_chunk_reply(msg);
  switch (res.outcome) {
    case store::ErasureTier::Outcome::kNone:
    case store::ErasureTier::Outcome::kPending:
      return;
    case store::ErasureTier::Outcome::kRecovered: {
      // Reconstructed: feed an origin-shaped reply through the normal
      // backwarding machinery so resolver claiming, table learning and
      // cache admission all run exactly as for an origin resolution.
      ++stats_.degraded_reads_served;
      Message reply = res.request;
      reply.kind = MessageKind::kReply;
      reply.sender = id();
      reply.target = id();
      reply.resolver = kInvalidNode;
      reply.cached = false;
      reply.proxy_hit = true;
      reply.degraded = true;
      reply.hops = msg.hops;
      reply.payload_bytes = res.object_bytes;
      reply.version = stored_version(reply.object, tables_.locate(reply.object));
      stats_.payload_bytes_served += reply.payload_bytes;
      receive_reply(net, reply);
      return;
    }
    case store::ErasureTier::Outcome::kFailed: {
      // Shortfall: the search terminates at the origin after all.  The
      // origin-bound decision was already counted when recovery started.
      Message forward = res.request;
      forward.sender = id();
      forward.target = origin_;
      net.send(std::move(forward));
      return;
    }
  }
}

// Paper Figure 6 (Forward_Addr).
NodeId AdcProxy::forward_address(Transport& net, const Located& mine) {
  if (mine.entry == nullptr) {
    // Unknown object: random peer over the full membership, self included.
    ++stats_.forwards_random;
    return proxies_[net.rng().index(proxies_.size())];
  }
  const NodeId location = mine.entry->location;
  if (location == id()) {
    // THIS marker: we are responsible but do not hold the data — the
    // search terminates at the origin server (paper Section III.3.2).
    ++stats_.forwards_origin;
    return origin_;
  }
  ++stats_.forwards_learned;
  return location;
}

// Paper Figure 7 (Receive_Reply).
void AdcProxy::receive_reply(Transport& net, const Message& msg) {
  // A reply with no backwarding record is an orphan: a duplicated message,
  // or a journey whose record died with a restart.  Drop it without
  // learning — processing it twice would double-count table updates and
  // could claim resolver status for a journey that already completed.
  if (!pending_.contains(msg.request_id)) {
    ++stats_.orphan_replies;
    return;
  }

  Message reply = msg;

  // NULL resolver == the data came straight from the origin server; the
  // first proxy on the backwarding path claims responsibility.  The origin
  // echoed the request's claim floor, so floor + 1 outbids every entry the
  // forward walk saw.
  if (reply.resolver == kInvalidNode) {
    reply.resolver = id();
    reply.claim = std::max(reply.claim, tables_.claim_of(reply.object)) + 1;
    ++stats_.resolver_claims;
    if (!reply.degraded) stats_.payload_bytes_fetched += reply.payload_bytes;
    // First proxy on the backward path: register (or refresh) the erasure
    // stripe for the freshly resolved object.
    if (erasure_ != nullptr) erasure_->stripe_object(net, reply.object);
  }

  // The object's entry as this reply leaves it: update_entry hands it back,
  // and a proxy that does not learn looks it up.
  const bool learn = config_.backward_multicast || reply.resolver == id();
  Located mine;
  if (learn) {
    const UpdateResult update = tables_.update_entry(reply.object, reply.resolver, local_time_,
                                                     reply.version, reply.claim);
    if (update.promoted_to_cache) ++stats_.cache_admissions;
    if (update.rejected_stale) ++stats_.stale_claims_rejected;
    mine = {update.entry, update.placement};
  } else {
    mine = tables_.locate(reply.object);
  }

  if (!config_.selective_caching) {
    // ABL-SEL: admit every passing object, evicting per LRU (a size-aware
    // cache may multi-evict under its byte budget or refuse admission).
    if (!lru_cache_->contains(reply.object)) ++stats_.cache_admissions;
    lru_cache_->insert(reply.object, reply.version);
  }

  // If the update admitted the object into our cache and nobody on the
  // path cached it yet, we become the official location for upstream
  // proxies (focus on a single caching location, Section IV.2).  Another
  // resolver event: re-claim one above the reply's running claim.
  const bool cached =
      config_.selective_caching ? mine.cached() : lru_cache_->contains(reply.object);
  if (cached && !reply.cached) {
    reply.resolver = id();
    reply.cached = true;
    reply.claim = std::max(reply.claim, mine.claim()) + 1;
    if (mine.entry != nullptr) mine.entry->raise_claim(reply.claim);
    ++stats_.resolver_claims;
  }

  // Backward along the stored path (LIFO per request id).
  const NodeId previous_hop = pending_.pop(reply.request_id);

  ++stats_.replies_relayed;
  reply.sender = id();
  reply.target = previous_hop;
  net.send(std::move(reply));
}

}  // namespace adc::core
