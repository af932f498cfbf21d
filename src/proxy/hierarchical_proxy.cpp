#include "proxy/hierarchical_proxy.h"

#include <cassert>
#include <utility>

namespace adc::proxy {

using sim::Message;
using sim::MessageKind;
using sim::Transport;

CacheNode::CacheNode(NodeId id, std::string name, NodeId upstream,
                     std::size_t cache_capacity, cache::Policy policy)
    : ProxyAgent(id, std::move(name)),
      upstream_(upstream),
      cache_capacity_(cache_capacity),
      policy_(policy),
      cache_(cache::make_cache(cache_capacity, policy)) {}

void CacheNode::enable_store(const store::StoreContext& ctx) {
  assert(ctx.store != nullptr);
  store_ = ctx.store;
  store::PayloadStorePtr sizer = store_;
  cache_ = cache::make_sized_cache(
      cache_capacity_, policy_, store_->config().byte_budget,
      [sizer](ObjectId object) { return sizer->size_of(object); });
}

sim::ProxySnapshot CacheNode::snapshot(bool with_contents) const {
  sim::ProxySnapshot snap;
  snap.name = name();
  snap.requests_received = stats_.requests_received;
  snap.local_hits = stats_.local_hits;
  snap.cached_objects = cache_->size();
  snap.payload_bytes_served = stats_.payload_bytes_served;
  snap.payload_bytes_fetched = stats_.payload_bytes_fetched;
  if (with_contents) snap.cached_ids = cache_->eviction_order();
  return snap;
}

void CacheNode::on_message(Transport& net, const Message& msg) {
  if (msg.kind == MessageKind::kRequest) {
    ++stats_.requests_received;
    if (cache_->lookup(msg.object)) {
      ++stats_.local_hits;
      Message reply = msg;
      reply.kind = MessageKind::kReply;
      reply.sender = id();
      reply.target = msg.sender;
      reply.resolver = id();
      reply.cached = true;
      reply.proxy_hit = true;
      reply.version = cache_->version(msg.object);
      reply.payload_bytes = store_ == nullptr ? 0 : store_->size_of(msg.object);
      stats_.payload_bytes_served += reply.payload_bytes;
      net.send(std::move(reply));
      return;
    }
    ++stats_.forwards_upstream;
    pending_.push(msg.request_id, msg.sender);
    Message forward = msg;
    forward.sender = id();
    forward.target = upstream_;
    forward.forward_count = msg.forward_count + 1;
    net.send(std::move(forward));
    return;
  }

  // Reply from upstream: admit-all caching, then relay to the requester.
  // A reply with no pending record is a duplicate of one already relayed.
  if (!pending_.contains(msg.request_id)) {
    ++stats_.orphan_replies;
    return;
  }
  const NodeId requester = pending_.pop(msg.request_id);

  stats_.payload_bytes_fetched += msg.payload_bytes;
  cache_->insert(msg.object, msg.version);
  Message reply = msg;
  reply.sender = id();
  reply.target = requester;
  if (reply.resolver == kInvalidNode) reply.resolver = id();
  net.send(std::move(reply));
}

}  // namespace adc::proxy
