// Transfer scheduling over finite-capacity links.
//
// Implements the sim::LinkHook seam: every message sent over a link with a
// finite bottleneck rate becomes a queued *transfer* at the sender's
// egress.  Delivery time is then
//
//     queueing delay  (waiting for earlier transfers to serialize)
//   + serialization   (ceil(bytes * ticks_per_second / rate) ticks)
//   + base delay      (the propagation latency the plain simulator charges)
//
// Fairness between destinations sharing an egress is deficit round-robin:
// each destination keeps a FIFO of transfers and a deficit counter; a ring
// visit grants one quantum (TransferScheduler::kPacingBytes) of credit and serves
// one burst of at most the accumulated credit, then rotates.  Large
// objects are therefore *paced* — a 256KB reconstruction is served as
// quantum-sized bursts interleaved with whatever else shares the egress —
// while byte fairness is preserved across visits by the carried deficit.
//
// Everything runs on the simulator's event queue (the scheduler owns
// per-burst service events), so runs remain single-threaded and
// bit-reproducible.  Transfers over unlimited links are declined back to
// the simulator: a config with no finite rates is bit-identical to no
// hook at all.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>

#include "link/link_model.h"
#include "sim/link_hook.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "util/types.h"

namespace adc::link {

struct TransferStats {
  std::uint64_t transfers = 0;          // sends over finite-rate links
  std::uint64_t passthrough = 0;        // sends declined (unlimited links)
  std::uint64_t queued = 0;             // transfers that waited to start
  std::uint64_t bursts = 0;             // pacing bursts served
  std::uint64_t bytes = 0;              // bytes through modeled links
  std::uint64_t max_backlog_bytes = 0;  // worst single-egress backlog seen
  SimTime total_wait = 0;               // summed queue waits
  SimTime max_wait = 0;                 // worst single queue wait
};

class TransferScheduler final : public sim::LinkHook {
 public:
  /// Deficit-round-robin quantum and pacing burst: a transfer occupies
  /// its egress for at most this many bytes before destinations sharing
  /// the egress get a turn, so a 256KB object cannot lock out a ping.
  static constexpr std::uint64_t kPacingBytes = 64 * 1024;

  /// `sim` must outlive the scheduler; the scheduler must be installed via
  /// Simulator::set_link_hook before traffic starts.
  TransferScheduler(sim::Simulator& sim, LinkModel model);

  bool on_send(const sim::Message& msg, sim::NodeKind from, sim::NodeKind to, SimTime now,
               SimTime base_delay) override;

  /// Bytes queued or in flight at `node`'s egress right now — the load
  /// signal the erasure tier uses to prefer lightly loaded stripe peers.
  std::uint64_t backlog_bytes(NodeId node) const noexcept;

  /// Transfers waiting at `node`'s egress (the in-service one included).
  std::size_t queue_depth(NodeId node) const noexcept;

  const TransferStats& stats() const noexcept { return stats_; }

  /// Queue-wait distribution (ticks from enqueue to first burst).
  const sim::PercentileTracker& wait_tracker() const noexcept { return wait_; }

  const LinkModel& model() const noexcept { return model_; }

 private:
  struct Transfer {
    sim::Message msg;  // handed back to the simulator once serialized
    std::uint64_t remaining = 0;
    std::uint64_t rate = 0;  // bottleneck bytes/sec for this transfer
    SimTime enqueued = 0;
    SimTime base_delay = 0;
    bool started = false;
  };

  struct Egress {
    bool busy = false;           // a burst is serializing right now
    std::uint64_t burst = 0;     // bytes of that burst
    std::uint64_t backlog = 0;   // bytes accepted but not yet transmitted
    std::list<NodeId> ring;      // DRR ring of destinations with backlog
    std::unordered_map<NodeId, std::deque<Transfer>> queues;
    std::unordered_map<NodeId, std::uint64_t> deficit;
  };

  /// Starts the next burst at `node`'s egress if it is idle and backlogged.
  void kick(NodeId node);
  void on_burst_done(NodeId node);

  sim::Simulator& sim_;
  LinkModel model_;
  std::unordered_map<NodeId, Egress> egress_;
  TransferStats stats_;
  sim::PercentileTracker wait_;
};

}  // namespace adc::link
