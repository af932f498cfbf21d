#include "fault/faulty_network.h"

#include <cmath>

namespace adc::fault {

FaultyNetwork::FaultyNetwork(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

bool FaultyNetwork::node_down(NodeId node, SimTime now) const noexcept {
  for (const CrashWindow& c : plan_.crashes) {
    if (c.node == node && now >= c.at && now < c.restart) return true;
  }
  return false;
}

bool FaultyNetwork::link_cut(NodeId a, NodeId b, SimTime now) const noexcept {
  for (const LinkPartition& p : plan_.partitions) {
    const bool match = (p.a == a && p.b == b) || (p.a == b && p.b == a);
    if (match && now >= p.from && now < p.until) return true;
  }
  return false;
}

sim::FaultDecision FaultyNetwork::on_send(const sim::Message& msg, SimTime now) {
  sim::FaultDecision fate;
  // A zero plan must not advance rng_ either: byte-identical to no hook.
  if (plan_.is_zero()) return fate;

  // Deterministic windows first — they draw no randomness, so a plan with
  // only crashes/partitions consumes zero RNG and stays comparable across
  // loss-rate sweeps that share a seed.
  if (node_down(msg.sender, now) || node_down(msg.target, now)) {
    ++counters_.drops_crash;
    fate.drop = true;
    return fate;
  }
  if (link_cut(msg.sender, msg.target, now)) {
    ++counters_.drops_partition;
    fate.drop = true;
    return fate;
  }

  if (plan_.drop_prob > 0.0 && rng_.chance(plan_.drop_prob)) {
    ++counters_.drops_random;
    fate.drop = true;
    return fate;
  }
  if (plan_.dup_prob > 0.0 && rng_.chance(plan_.dup_prob)) {
    ++counters_.duplicates;
    fate.duplicates = 1;
  }
  if (plan_.extra_delay_prob > 0.0 && rng_.chance(plan_.extra_delay_prob)) {
    ++counters_.delays;
    const double drawn = rng_.exponential(plan_.extra_delay_mean > 0.0 ? plan_.extra_delay_mean : 1.0);
    auto ticks = static_cast<SimTime>(std::llround(drawn));
    fate.extra_delay += ticks < 1 ? 1 : ticks;
  }
  return fate;
}

}  // namespace adc::fault
