// The declarative fault model consumed by fault::FaultyNetwork (simulated
// transport) and server::NodeDaemon (live transport).
//
// A FaultPlan is pure data: probabilities, delay distributions, link
// partition windows and node crash/restart schedules, plus the seed that
// makes every stochastic decision reproducible.  Identical plans produce
// identical fault sequences — the property that keeps chaos sweeps
// (bench/ext_churn) bit-identical at any --workers count.
//
// Time units are whatever the consuming transport's clock speaks:
// simulated ticks under the Simulator, microseconds since start in the
// live daemon.  Probabilities apply per message transfer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace adc::fault {

/// Drops every message between two nodes (both directions) inside the
/// window [from, until).
struct LinkPartition {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  SimTime from = 0;
  SimTime until = kSimTimeMax;
};

/// The node is unreachable inside [at, restart): every message to or from
/// it is dropped.  A restart of kSimTimeMax means the node never returns.
/// `flush_state` marks whether the crash also wipes the node's learned
/// state (the driver schedules the flush; message dropping happens here).
struct CrashWindow {
  NodeId node = kInvalidNode;
  SimTime at = 0;
  SimTime restart = kSimTimeMax;
  bool flush_state = true;
};

struct FaultPlan {
  /// Per-transfer probability that the message is lost.
  double drop_prob = 0.0;

  /// Per-transfer probability that an extra copy is delivered.
  double dup_prob = 0.0;

  /// Per-transfer probability of extra latency, exponentially distributed
  /// with mean `extra_delay_mean` (rounded to whole ticks, at least 1).  A
  /// delayed message can overtake later sends, which is how reordering
  /// shows in an in-order event queue.
  double extra_delay_prob = 0.0;
  double extra_delay_mean = 0.0;

  std::vector<LinkPartition> partitions;
  std::vector<CrashWindow> crashes;

  /// Seed of the fault layer's private RNG.  Decisions never touch the
  /// transport's own RNG, so a zero-rate plan is invisible.
  std::uint64_t seed = 0x0fa17ULL;

  /// True when no fault can ever fire: all probabilities zero and no
  /// partition or crash windows.
  bool is_zero() const noexcept;

  /// Human-readable one-liner for banners and logs.
  std::string describe() const;
};

}  // namespace adc::fault
