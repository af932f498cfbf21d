// The discrete-event simulator that stands in for the paper's "Carolina"
// multi-agent platform.
//
// Single-threaded and fully deterministic: nodes are registered once, all
// communication goes through send(), and run() drains the event queue.
// The paper verified that a single-host simulation of its proxy agents is
// result-equivalent to the 8-host deployment; this engine is the
// single-host equivalent with explicit, auditable semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/fault_hook.h"
#include "sim/link_hook.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/transport.h"
#include "util/rng.h"
#include "util/types.h"

namespace adc::sim {

class Simulator final : public Transport {
 public:
  explicit Simulator(std::uint64_t seed = 1, LatencyModel latency = {});

  /// Registers a node; the simulator assigns and returns its id.  Nodes
  /// must all be added before the first send().
  NodeId add_node(std::unique_ptr<Node> node);

  Node& node(NodeId id) noexcept { return *nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(NodeId id) const noexcept { return *nodes_[static_cast<std::size_t>(id)]; }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Transfers a message.  `msg.sender` must name the sending node and
  /// `msg.target` the destination; the hop counter is incremented here so
  /// every transfer — including a proxy forwarding to itself — counts
  /// exactly once.
  void send(Message msg) override;

  /// Schedules the delivery of an already-sent message to `msg.target` at
  /// `at`, with no further hop accounting or hooks: the path a LinkHook
  /// that owns a transfer uses to hand it back.  Like schedule(), throws
  /// std::logic_error when `at` is before now().
  void deliver_at(SimTime at, const Message& msg);

  /// Schedules an arbitrary action (request injection, membership change).
  void schedule(SimTime at, std::function<void()> action);
  void schedule_after(SimTime delay, std::function<void()> action);

  /// Runs until the event queue is empty or `max_events` executed.
  /// Returns the number of events executed by this call.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  SimTime now() const noexcept override { return queue_.now(); }
  bool idle() const noexcept { return queue_.empty(); }

  util::Rng& rng() noexcept override { return rng_; }
  Network& network() noexcept { return network_; }
  MetricsCollector& metrics() noexcept { return metrics_; }
  const MetricsCollector& metrics() const noexcept { return metrics_; }

  /// Replaces the metric collector (drivers configure window/sampling).
  void set_metrics(MetricsCollector collector) { metrics_ = std::move(collector); }

  /// Installs a fault hook (non-owning; must outlive the simulation, or be
  /// cleared with nullptr).  Consulted on every send after hop accounting:
  /// the hook can drop the transfer, duplicate it, or stretch its latency.
  /// With no hook — or a hook that always returns the default decision —
  /// delivery is bit-identical to the fault-free simulator.
  void set_fault_hook(FaultHook* hook) noexcept { fault_ = hook; }
  FaultHook* fault_hook() const noexcept { return fault_; }

  /// Installs a link hook (non-owning; must outlive the simulation, or be
  /// cleared with nullptr).  Consulted after the fault hook on every
  /// non-self transfer: the hook may take ownership of delivery timing to
  /// model serialization and queueing on finite-capacity links.  With no
  /// hook — or a hook that declines every transfer — delivery is
  /// bit-identical to the plain simulator.
  void set_link_hook(LinkHook* hook) noexcept { link_ = hook; }
  LinkHook* link_hook() const noexcept { return link_; }

  /// Observes every message at send time (after hop accounting), e.g. to
  /// reconstruct journeys for protocol-level assertions or visualization.
  /// Pass nullptr to disable.  The observer must not send messages.
  using MessageObserver = std::function<void(const Message&, SimTime sent_at)>;
  void set_message_observer(MessageObserver observer) { observer_ = std::move(observer); }

  std::uint64_t messages_delivered() const noexcept { return messages_delivered_; }

 private:
  EventQueue queue_;
  std::vector<std::unique_ptr<Node>> nodes_;
  util::Rng rng_;
  Network network_;
  MetricsCollector metrics_;
  MessageObserver observer_;
  FaultHook* fault_ = nullptr;
  LinkHook* link_ = nullptr;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace adc::sim
