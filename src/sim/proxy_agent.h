// ProxyAgent: the one interface every cooperating-proxy agent exposes to
// its host.
//
// ADC, the hashing baselines (CARP/ring/HRW), the hierarchical CacheNode
// and SOAP differ in how they route, learn and cache, but their hosts —
// the simulator's run_experiment, the membership wrapper and the adcd
// daemon — only ever ask the same few things of them: cold-restart
// (flush), react to a peer's confirmed death or rejoin, drop state that
// names a peer the transport just found unreachable, send one
// anti-entropy batch, expose the hosted erasure tier, and report the
// common per-proxy counters.  Hooks a scheme has no use for default to
// no-ops, so a host never needs to know which scheme it runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/node.h"
#include "util/types.h"

namespace adc::store {
class ErasureTier;
}

namespace adc::sim {

class Transport;

/// End-of-run view of one proxy, in counters every scheme keeps (zero
/// where a scheme has no such notion).
struct ProxySnapshot {
  std::string name;
  std::uint64_t requests_received = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t cached_objects = 0;
  std::uint64_t table_entries = 0;
  /// Payload bytes this proxy served (hits + degraded reads) and fetched
  /// from upstream; 0 while the store is disabled.
  std::uint64_t payload_bytes_served = 0;
  std::uint64_t payload_bytes_fetched = 0;
  /// Mapping entries dropped because they named a dead or unreachable peer.
  std::uint64_t entries_invalidated = 0;
  /// Worst share of the key space an owner-map rebuild moved.
  double max_reshuffle_fraction = 0.0;
  /// Cached object ids; filled only when snapshot() is asked for contents.
  std::vector<ObjectId> cached_ids;
};

class ProxyAgent : public Node {
 public:
  ProxyAgent(NodeId id, std::string name) : Node(id, NodeKind::kProxy, std::move(name)) {}

  /// Fault injection: wipes cached and learned state as if the proxy
  /// cold-restarted.  In-flight routing records survive.
  virtual void flush() = 0;

  /// Confirmed membership change (failure-detector callbacks).
  virtual void on_peer_dead(NodeId /*peer*/) {}
  virtual void on_peer_joined(NodeId /*peer*/) {}

  /// Transport-level evidence that `peer` is down (a failed dial or a reset
  /// connection), ahead of any membership verdict.
  virtual void on_peer_unreachable(NodeId /*peer*/) {}

  /// Sends up to `batch` anti-entropy opinions to `peer`.
  virtual void send_repair(Transport& /*net*/, NodeId /*peer*/, std::size_t /*batch*/) {}

  /// The hosted erasure tier, or null (no store, erasure off, or a scheme
  /// without one).  Hosts drive its repair rounds and load probe.
  virtual store::ErasureTier* erasure_tier() const noexcept { return nullptr; }

  virtual ProxySnapshot snapshot(bool with_contents) const = 0;
};

}  // namespace adc::sim
