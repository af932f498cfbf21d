#include "proxy/coordinator.h"

#include <cassert>
#include <utility>

namespace adc::proxy {

using sim::Message;
using sim::MessageKind;
using sim::Transport;

Coordinator::Coordinator(NodeId id, std::string name, std::vector<NodeId> proxies,
                         CoordinatorConfig config)
    : Node(id, sim::NodeKind::kProxy, std::move(name)),
      proxies_(std::move(proxies)),
      config_(config) {
  assert(!proxies_.empty());
  for (NodeId proxy : proxies_) scores_.emplace(proxy, 0.5);
}

double Coordinator::score(NodeId proxy) const noexcept {
  const auto it = scores_.find(proxy);
  return it == scores_.end() ? 0.0 : it->second;
}

NodeId Coordinator::pick_proxy(Transport& net) {
  if (net.rng().chance(config_.epsilon)) {
    ++stats_.explored;
    return proxies_[net.rng().index(proxies_.size())];
  }
  NodeId best = proxies_.front();
  double best_score = -1.0;
  for (NodeId proxy : proxies_) {
    const double s = scores_[proxy];
    if (s > best_score) {
      best_score = s;
      best = proxy;
    }
  }
  return best;
}

void Coordinator::reinforce(NodeId proxy, SimTime response_time) {
  // Reward shrinks with response time; 1/(1+rt) maps [0,inf) to (0,1].
  const double reward = 1.0 / (1.0 + static_cast<double>(response_time));
  // Reinforcement step size for the score update.
  constexpr double kLearningRate = 0.1;
  double& s = scores_[proxy];
  s = (1.0 - kLearningRate) * s + kLearningRate * reward;
}

void Coordinator::on_message(Transport& net, const Message& msg) {
  if (msg.kind == MessageKind::kRequest) {
    const NodeId proxy = pick_proxy(net);
    ++stats_.dispatched;
    pending_.emplace(msg.request_id, Dispatch{msg.client, proxy, net.now()});
    Message forward = msg;
    forward.sender = id();
    forward.target = proxy;
    forward.forward_count = msg.forward_count + 1;
    net.send(std::move(forward));
    return;
  }

  const auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) {
    ++stats_.orphan_replies;  // a duplicate of a reply already relayed
    return;
  }
  const Dispatch dispatch = it->second;
  pending_.erase(it);
  reinforce(dispatch.proxy, net.now() - dispatch.sent_at);

  ++stats_.replies_relayed;
  Message reply = msg;
  reply.sender = id();
  reply.target = dispatch.client;
  net.send(std::move(reply));
}

}  // namespace adc::proxy
