#include "proxy/soap_proxy.h"

#include <cassert>
#include <utility>

namespace adc::proxy {

using sim::Message;
using sim::MessageKind;
using sim::Transport;

SoapProxy::SoapProxy(NodeId id, std::string name,
                     std::shared_ptr<const CategoryMap> categories,
                     std::vector<NodeId> proxies, NodeId origin,
                     std::size_t cache_capacity, SoapConfig config)
    : ProxyAgent(id, std::move(name)),
      categories_(std::move(categories)),
      proxies_(std::move(proxies)),
      origin_(origin),
      cache_(cache::make_cache(cache_capacity, cache::Policy::kLru)),
      config_(config) {
  assert(categories_ != nullptr);
  assert(!proxies_.empty());
  scores_.assign(categories_->categories() * proxies_.size(), 0.5);
}

sim::ProxySnapshot SoapProxy::snapshot(bool with_contents) const {
  sim::ProxySnapshot snap;
  snap.name = name();
  snap.requests_received = stats_.requests_received;
  snap.local_hits = stats_.local_hits;
  snap.cached_objects = cache_->size();
  if (with_contents) snap.cached_ids = cache_->eviction_order();
  return snap;
}

double SoapProxy::score(std::size_t category, NodeId peer) const noexcept {
  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    if (proxies_[i] == peer) return scores_[category * proxies_.size() + i];
  }
  return 0.0;
}

NodeId SoapProxy::pick_location(Transport& net, std::size_t category) {
  if (net.rng().chance(config_.epsilon)) {
    ++stats_.forwards_explored;
    return proxies_[net.rng().index(proxies_.size())];
  }
  ++stats_.forwards_learned;
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    const double s = scores_[category * proxies_.size() + i];
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return proxies_[best];
}

void SoapProxy::reinforce(std::size_t category, NodeId peer, SimTime response_time) {
  const double reward = 1.0 / (1.0 + static_cast<double>(response_time));
  // Reinforcement step size.
  constexpr double kLearningRate = 0.2;
  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    if (proxies_[i] != peer) continue;
    double& s = scores_[category * proxies_.size() + i];
    s = (1.0 - kLearningRate) * s + kLearningRate * reward;
    return;
  }
}

void SoapProxy::on_message(Transport& net, const Message& msg) {
  if (msg.kind == MessageKind::kRequest) {
    receive_request(net, msg);
  } else {
    receive_reply(net, msg);
  }
}

void SoapProxy::receive_request(Transport& net, const Message& msg) {
  ++stats_.requests_received;
  const bool from_client = msg.sender == msg.client;

  if (cache_->lookup(msg.object)) {
    ++stats_.local_hits;
    Message reply = msg;
    reply.kind = MessageKind::kReply;
    reply.sender = id();
    // A forwarded request returns via the entry proxy so it can observe
    // the response time and reinforce its category mapping.
    reply.target = msg.sender;
    reply.resolver = id();
    reply.cached = true;
    reply.proxy_hit = true;
    reply.version = cache_->version(msg.object);
    net.send(std::move(reply));
    return;
  }

  if (from_client) {
    const std::size_t category = categories_->category_of(msg.object);
    const NodeId location = pick_location(net, category);
    pending_.emplace(msg.request_id,
                     PendingFetch{msg.client, location, category, net.now()});
    Message forward = msg;
    forward.sender = id();
    forward.forward_count = msg.forward_count + 1;
    if (location == id()) {
      // The table says THIS: we are the category's home; resolve upstream.
      ++stats_.forwards_to_origin;
      forward.target = origin_;
    } else {
      forward.target = location;
    }
    net.send(std::move(forward));
    return;
  }

  // Forwarded to us as the category home but we miss: fetch from the
  // origin and remember to answer the entry proxy (one-level forwarding,
  // no further peer hops).
  ++stats_.forwards_to_origin;
  pending_.emplace(msg.request_id, PendingFetch{msg.sender, kInvalidNode,
                                                categories_->category_of(msg.object),
                                                net.now()});
  Message forward = msg;
  forward.sender = id();
  forward.target = origin_;
  net.send(std::move(forward));
}

void SoapProxy::receive_reply(Transport& net, const Message& msg) {
  const auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) {
    ++stats_.orphan_replies;  // a duplicate of a reply already relayed
    return;
  }
  const PendingFetch fetch = it->second;
  pending_.erase(it);

  Message reply = msg;
  reply.sender = id();
  reply.target = fetch.requester;

  if (fetch.forwarded_to == kInvalidNode) {
    // Our own origin fetch (as the category home): cache admit-all and
    // answer whoever asked (entry proxy or client).
    cache_->insert(msg.object, msg.version);
    if (reply.resolver == kInvalidNode) reply.resolver = id();
    net.send(std::move(reply));
    return;
  }

  // A reply to a request we routed (possibly to ourselves via the origin):
  // learn from the response time, then relay to the client.
  reinforce(fetch.category, fetch.forwarded_to, net.now() - fetch.sent_at);
  if (fetch.forwarded_to == id()) {
    // Self-route resolved at the origin: we are the category home.
    cache_->insert(msg.object, msg.version);
    if (reply.resolver == kInvalidNode) reply.resolver = id();
  }
  net.send(std::move(reply));
}

}  // namespace adc::proxy
