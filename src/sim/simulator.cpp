#include "sim/simulator.h"

#include <cassert>
#include <utility>

#include "util/logging.h"

namespace adc::sim {

Simulator::Simulator(std::uint64_t seed, LatencyModel latency)
    : rng_(seed), network_(latency) {}

NodeId Simulator::add_node(std::unique_ptr<Node> node) {
  assert(node != nullptr);
  const auto id = static_cast<NodeId>(nodes_.size());
  assert(node->id() == id && "node must be constructed with its assigned id");
  nodes_.push_back(std::move(node));
  return id;
}

void Simulator::send(Message msg) {
  assert(msg.sender >= 0 && static_cast<std::size_t>(msg.sender) < nodes_.size());
  assert(msg.target >= 0 && static_cast<std::size_t>(msg.target) < nodes_.size());

  msg.hops += 1;
  network_.count_message(msg.kind, msg.payload_bytes);
  if (observer_) observer_(msg, now());

  FaultDecision fate;
  if (fault_ != nullptr) fate = fault_->on_send(msg, now());
  if (fate.drop) return;

  const bool self_message = msg.sender == msg.target;
  const SimTime delay = network_.latency(node(msg.sender).kind(), node(msg.target).kind(),
                                         self_message) +
                        network_.node_delay(msg.target) + fate.extra_delay;
  const NodeId target = msg.target;
  ADC_LOG_TRACE << "send t=" << now() << " " << node(msg.sender).name() << " -> "
                << node(target).name() << " req=" << msg.request_id
                << " kind=" << (msg.kind == MessageKind::kRequest ? "REQ" : "RPL")
                << " hops=" << msg.hops;
  // Duplicates land one tick apart so delivery order stays well-defined.
  // A fault-injected copy is a retransmission artifact, not a second
  // payload transfer, so copies bypass the link model and ride on the
  // plain latency.
  for (int copy = 1; copy <= fate.duplicates; ++copy) deliver_at(now() + delay + copy, msg);
  if (link_ != nullptr && !self_message &&
      link_->on_send(msg, node(msg.sender).kind(), node(target).kind(), now(), delay)) {
    return;
  }
  deliver_at(now() + delay, msg);
}

void Simulator::deliver_at(SimTime at, const Message& msg) { queue_.schedule_delivery(at, msg); }

void Simulator::schedule(SimTime at, std::function<void()> action) {
  queue_.schedule(at, std::move(action));
}

void Simulator::schedule_after(SimTime delay, std::function<void()> action) {
  schedule(now() + delay, std::move(action));
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t executed = 0;
  const auto deliver = [this](const Message& msg) {
    ++messages_delivered_;
    nodes_[static_cast<std::size_t>(msg.target)]->on_message(*this, msg);
  };
  while (!queue_.empty() && executed < max_events) {
    // The queue advances the clock before running the event, so events
    // observe the correct current time when they send follow-up messages.
    queue_.run_next(deliver);
    ++executed;
  }
  return executed;
}

}  // namespace adc::sim
