// Latency model for the simulated network.
//
// Link classes mirror the paper's hop taxonomy (client-proxy, proxy-proxy,
// proxy-server).  Latencies only order events — hit/hop results do not
// depend on their absolute values — but distinct values make backwarding
// timelines realistic and let the latency metric distinguish a local hit
// from an origin round trip.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "sim/node.h"
#include "util/types.h"

namespace adc::sim {

/// Traffic classes for per-link-class accounting.  Requests and replies
/// are the paper's data path; control covers the membership layer (SWIM
/// probes/gossip and anti-entropy repair); store covers the erasure tier
/// (stripe registration and chunk traffic).  Keeping the classes separate
/// is what lets EXPERIMENTS tables show control-plane overhead next to
/// payload traffic instead of one opaque message total.
enum class LinkClass : std::uint8_t { kRequest = 0, kReply = 1, kControl = 2, kStore = 3 };
inline constexpr std::size_t kLinkClassCount = 4;

constexpr LinkClass link_class(MessageKind kind) noexcept {
  if (kind == MessageKind::kRequest) return LinkClass::kRequest;
  if (kind == MessageKind::kReply) return LinkClass::kReply;
  if (is_store_kind(kind)) return LinkClass::kStore;
  return LinkClass::kControl;
}

struct LatencyModel {
  SimTime client_proxy = 1;
  SimTime proxy_proxy = 2;
  SimTime proxy_origin = 10;
  /// Self-addressed messages (a proxy random-forwarding to itself) still
  /// take one queueing step so event ordering stays strictly causal.
  SimTime self = 1;
};

class Network {
 public:
  explicit Network(LatencyModel model = {}) : model_(model) {}

  const LatencyModel& model() const noexcept { return model_; }

  /// One-way delay between two node kinds.
  SimTime latency(NodeKind from, NodeKind to, bool self_message) const noexcept;

  /// Heterogeneous hardware: extra processing delay added to every message
  /// *delivered to* the given node (a slow Pentium among fast ones — the
  /// scenario the paper's coordinator predecessor was built to absorb).
  void set_node_delay(NodeId node, SimTime extra);
  SimTime node_delay(NodeId node) const noexcept {
    const auto i = static_cast<std::size_t>(node);
    return i < node_delays_.size() ? node_delays_[i] : 0;
  }

  std::uint64_t messages_sent() const noexcept { return messages_sent_; }

  /// Charges one transfer.  `bytes` is the payload the message carries
  /// (sim::Message::payload_bytes; 0 for control traffic and while the
  /// payload store is disabled).  The no-argument form keeps legacy call
  /// sites counting into the request class.
  void count_message(MessageKind kind = MessageKind::kRequest, std::uint64_t bytes = 0) noexcept {
    ++messages_sent_;
    const auto c = static_cast<std::size_t>(link_class(kind));
    ++class_messages_[c];
    class_bytes_[c] += bytes;
  }

  std::uint64_t class_messages(LinkClass c) const noexcept {
    return class_messages_[static_cast<std::size_t>(c)];
  }
  std::uint64_t class_bytes(LinkClass c) const noexcept {
    return class_bytes_[static_cast<std::size_t>(c)];
  }

 private:
  LatencyModel model_;
  std::vector<SimTime> node_delays_;  // by node id; absent = 0
  std::uint64_t messages_sent_ = 0;
  std::array<std::uint64_t, kLinkClassCount> class_messages_{};
  std::array<std::uint64_t, kLinkClassCount> class_bytes_{};
};

}  // namespace adc::sim
