// Link capacities for the simulated network.
//
// The discrete-event simulator charges a fixed per-hop latency regardless
// of payload size, so a 256KB degraded-read reconstruction costs the same
// as a 128B control ping.  LinkConfig/LinkModel add the missing dimension:
// every peer pair gets a capacity in bytes/sec, every node an egress
// capacity shared by all of its links, and the origin its own egress knob
// (the one the EXT-BW sweep turns).  The model only answers rate/size
// questions — queueing and fairness live in TransferScheduler.
//
// Time scale: sim latencies are small integers (1/2/10 ticks), and
// `ticks_per_second` fixes what a tick means in wall terms.  The default
// of 1000 reads one tick as one millisecond, so a 256KB object through a
// 1MB/s link costs ~256 ticks of serialization — dwarfing the 10-tick
// origin propagation exactly the way a constrained WAN link would.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "sim/message.h"
#include "util/types.h"

namespace adc::link {

struct LinkConfig {
  /// Master switch: disabled means no TransferScheduler is installed and
  /// the simulator is bit-identical to one without a link layer.
  bool enabled = false;

  /// Sim-ticks per second of modeled wall time; converts bytes/sec
  /// capacities into serialization ticks.
  std::uint64_t ticks_per_second = 1000;

  /// Capacity of any single peer-pair link, bytes/sec (0 = unlimited).
  std::uint64_t pair_bytes_per_sec = 0;

  /// Egress capacity shared by every link of a non-origin node
  /// (0 = unlimited).
  std::uint64_t node_egress_bytes_per_sec = 0;

  /// Egress capacity of the origin server (0 = unlimited).  Capping this
  /// is what makes byte hit rate dominate request hit rate: every miss
  /// competes for the same constrained pipe.
  std::uint64_t origin_egress_bytes_per_sec = 0;

  /// Accounted wire size of a message that carries no payload (requests,
  /// SWIM, anti-entropy, chunk lookups) — the frame itself is not free.
  std::uint64_t control_bytes = 128;
};

class LinkModel {
 public:
  LinkModel() = default;
  LinkModel(LinkConfig config, NodeId origin) : config_(config), origin_(origin) {}

  const LinkConfig& config() const noexcept { return config_; }
  bool enabled() const noexcept { return config_.enabled; }
  NodeId origin() const noexcept { return origin_; }

  /// Directional per-pair capacity override; wins over pair_bytes_per_sec.
  void set_pair_rate(NodeId from, NodeId to, std::uint64_t bytes_per_sec);

  /// Egress capacity of `node`'s uplink (0 = unlimited).
  std::uint64_t egress_rate(NodeId node) const noexcept;

  /// Capacity of the (from -> to) pair link (0 = unlimited).
  std::uint64_t pair_rate(NodeId from, NodeId to) const noexcept;

  /// Bottleneck rate for one transfer: the tighter of the pair link and
  /// the sender's egress (0 = unlimited end to end).
  std::uint64_t transfer_rate(NodeId from, NodeId to) const noexcept;

  /// Accounted wire size of a message: its payload, else a control frame.
  /// Never 0, so every modeled transfer costs at least one tick.
  std::uint64_t transfer_bytes(const sim::Message& msg) const noexcept;

  /// Serialization delay of `bytes` at `bytes_per_sec`, in sim ticks,
  /// rounded up (>= 1 for bytes > 0); 0 when the rate is unlimited.
  SimTime serialization_ticks(std::uint64_t bytes, std::uint64_t bytes_per_sec) const noexcept;

 private:
  LinkConfig config_;
  NodeId origin_ = kInvalidNode;
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> pair_rates_;
};

}  // namespace adc::link
