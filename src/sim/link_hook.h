// The simulator's bandwidth seam.
//
// Simulator::send() consults an optional LinkHook after fault handling and
// before scheduling delivery, so a link layer (src/link) can model finite
// link capacity — serialization delay, queueing behind in-flight transfers,
// fairness between destinations sharing an egress — without the simulator
// knowing a single bandwidth model.  Mirrors the FaultHook seam: the hook
// lives outside adc_sim's implementation so the dependency arrow points one
// way (sim defines the seam, link implements it).
//
// Unlike FaultHook, which returns a verdict the simulator applies, a
// LinkHook can take *ownership of delivery timing*: queueing delay depends
// on transfers that have not finished yet, so it cannot be computed eagerly
// at send time.  A hook that owns a transfer schedules its own service
// events (it holds the Simulator) and hands the message back through
// Simulator::deliver_at once the last byte has been serialized.  A hook that declines every
// transfer — or no hook at all — leaves delivery bit-identical to the
// plain simulator.
#pragma once

#include "sim/message.h"
#include "sim/node.h"
#include "util/types.h"

namespace adc::sim {

class LinkHook {
 public:
  virtual ~LinkHook() = default;

  /// Called once per transfer (self-addressed messages excepted — there is
  /// no wire under those).  `base_delay` is everything the plain simulator
  /// would charge: propagation latency + receiver node delay + any fault
  /// stretch.  Return false to decline — the simulator delivers at
  /// now + base_delay exactly as if no hook were installed.  Return true to
  /// own the transfer; the hook must then keep a copy of `msg` and pass it
  /// to Simulator::deliver_at exactly once, at a time >= now + base_delay.
  virtual bool on_send(const Message& msg, NodeKind from, NodeKind to, SimTime now,
                       SimTime base_delay) = 0;
};

}  // namespace adc::sim
