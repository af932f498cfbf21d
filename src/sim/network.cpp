#include "sim/network.h"

namespace adc::sim {

void Network::set_node_delay(NodeId node, SimTime extra) {
  if (node < 0) return;  // not a node id: nothing is ever delivered there
  const auto i = static_cast<std::size_t>(node);
  if (i >= node_delays_.size()) node_delays_.resize(i + 1, 0);
  node_delays_[i] = extra > 0 ? extra : 0;
}

SimTime Network::latency(NodeKind from, NodeKind to, bool self_message) const noexcept {
  if (self_message) return model_.self;
  if (from == NodeKind::kOrigin || to == NodeKind::kOrigin) return model_.proxy_origin;
  if (from == NodeKind::kClient || to == NodeKind::kClient) return model_.client_proxy;
  return model_.proxy_proxy;
}

}  // namespace adc::sim
