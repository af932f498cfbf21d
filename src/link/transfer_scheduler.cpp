#include "link/transfer_scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace adc::link {

TransferScheduler::TransferScheduler(sim::Simulator& sim, LinkModel model)
    : sim_(sim), model_(std::move(model)) {}

bool TransferScheduler::on_send(const sim::Message& msg, sim::NodeKind /*from*/,
                                sim::NodeKind /*to*/, SimTime now, SimTime base_delay) {
  const std::uint64_t rate = model_.transfer_rate(msg.sender, msg.target);
  if (rate == 0) {
    ++stats_.passthrough;
    return false;  // unlimited end to end: plain delivery, bit-identical
  }

  const std::uint64_t bytes = model_.transfer_bytes(msg);
  ++stats_.transfers;
  stats_.bytes += bytes;

  Egress& e = egress_[msg.sender];
  auto& q = e.queues[msg.target];
  if (q.empty()) e.ring.push_back(msg.target);

  Transfer t;
  t.msg = msg;
  t.remaining = bytes;
  t.rate = rate;
  t.enqueued = now;
  t.base_delay = base_delay;
  q.push_back(std::move(t));

  e.backlog += bytes;
  stats_.max_backlog_bytes = std::max(stats_.max_backlog_bytes, e.backlog);

  kick(msg.sender);
  return true;
}

void TransferScheduler::kick(NodeId node) {
  Egress& e = egress_[node];
  if (e.busy) return;

  // Drop drained destinations off the ring front.
  while (!e.ring.empty()) {
    const NodeId dest = e.ring.front();
    const auto qit = e.queues.find(dest);
    if (qit != e.queues.end() && !qit->second.empty()) break;
    e.ring.pop_front();
    e.deficit.erase(dest);
    if (qit != e.queues.end()) e.queues.erase(qit);
  }
  if (e.ring.empty()) return;

  const NodeId dest = e.ring.front();
  Transfer& t = e.queues[dest].front();

  // One quantum of credit per ring visit; the burst spends accumulated
  // credit, so destinations short-changed by a sub-quantum burst catch up
  // on their next turn (classic DRR byte fairness).
  std::uint64_t& deficit = e.deficit[dest];
  deficit += kPacingBytes;
  const std::uint64_t burst = std::min(t.remaining, deficit);
  deficit -= burst;

  if (!t.started) {
    t.started = true;
    const SimTime waited = sim_.now() - t.enqueued;
    wait_.add(waited);
    stats_.total_wait += waited;
    stats_.max_wait = std::max(stats_.max_wait, waited);
    if (waited > 0) ++stats_.queued;
  }

  ++stats_.bursts;
  e.busy = true;
  e.burst = burst;
  const SimTime tx = model_.serialization_ticks(burst, t.rate);
  sim_.schedule_after(tx, [this, node]() { on_burst_done(node); });
}

void TransferScheduler::on_burst_done(NodeId node) {
  Egress& e = egress_[node];
  e.busy = false;
  const std::uint64_t burst = e.burst;

  // The serving destination sits at the ring front for the whole burst:
  // kick() never rotates while the egress is busy, and arrivals only
  // append to the back.
  assert(!e.ring.empty());
  const NodeId dest = e.ring.front();
  auto& q = e.queues[dest];
  assert(!q.empty());
  Transfer& t = q.front();
  assert(burst <= t.remaining && burst <= e.backlog);

  t.remaining -= burst;
  e.backlog -= burst;

  // End of this destination's turn either way: rotate so destinations
  // sharing the egress interleave at pacing granularity.
  e.ring.pop_front();
  if (t.remaining == 0) {
    // Fully serialized; the last byte still propagates for the latency
    // the plain simulator would charge.
    sim_.deliver_at(sim_.now() + t.base_delay, t.msg);
    q.pop_front();
    if (q.empty()) {
      e.queues.erase(dest);
      e.deficit.erase(dest);
    } else {
      e.ring.push_back(dest);
    }
  } else {
    e.ring.push_back(dest);
  }

  kick(node);
}

std::uint64_t TransferScheduler::backlog_bytes(NodeId node) const noexcept {
  const auto it = egress_.find(node);
  return it == egress_.end() ? 0 : it->second.backlog;
}

std::size_t TransferScheduler::queue_depth(NodeId node) const noexcept {
  const auto it = egress_.find(node);
  if (it == egress_.end()) return 0;
  std::size_t depth = 0;
  for (const auto& [dest, q] : it->second.queues) depth += q.size();
  return depth;
}

}  // namespace adc::link
