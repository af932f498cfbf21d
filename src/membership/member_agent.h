// MemberAgent: wraps a proxy agent with a SwimDetector and a
// RepairScheduler so membership runs *next to* the protocol agent, not
// inside it.  The wrapped agent stays byte-for-byte the code that runs
// without membership; the wrapper routes SWIM control traffic to the
// detector and everything else (requests, replies, repair opinions) to the
// inner agent, and a periodic tick() — driven by the simulator's event
// queue or the daemon's event loop — advances probes, timeouts, and repair
// rounds.
//
// Reactions to membership changes go through the sim::ProxyAgent
// interface, because they are scheme-specific: ADC prunes mapping tables
// and shrinks its forwarding membership; consistent-hashing schemes
// rebuild their owner map.  The wrapper itself knows nothing about either.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "membership/repair.h"
#include "membership/swim.h"
#include "sim/proxy_agent.h"
#include "sim/transport.h"
#include "util/types.h"

namespace adc::membership {

struct MembershipConfig {
  SwimConfig swim;
  RepairConfig repair;
};

class MemberAgent final : public sim::Node {
 public:
  /// `peers` is the candidate membership this node watches (its own id is
  /// filtered out).  Seeds are derived per node from config.swim.seed so
  /// each member's private probe order differs but stays reproducible.
  MemberAgent(std::unique_ptr<sim::ProxyAgent> inner, std::vector<NodeId> peers,
              MembershipConfig config);

  void on_message(sim::Transport& net, const sim::Message& msg) override;

  /// Advances the detector and, when armed, fires a repair round: the
  /// inner agent offers anti-entropy opinions to every currently-alive
  /// peer, and its erasure tier (when re-stripe repair is on) sends one
  /// byte-budgeted re-stripe round.
  void tick(sim::Transport& net, SimTime now);

  /// True while the inner agent's erasure tier still has re-stripe repair
  /// queued — the host keeps ticking until this drains.
  bool restripe_pending() const;

  sim::ProxyAgent& inner() noexcept { return *inner_; }
  const sim::ProxyAgent& inner() const noexcept { return *inner_; }
  SwimDetector& detector() noexcept { return detector_; }
  const SwimDetector& detector() const noexcept { return detector_; }
  const RepairScheduler& repair() const noexcept { return repair_; }
  const MembershipConfig& config() const noexcept { return config_; }

 private:
  std::unique_ptr<sim::ProxyAgent> inner_;
  MembershipConfig config_;
  SwimDetector detector_;
  RepairScheduler repair_;
  bool transition_pending_ = false;
};

}  // namespace adc::membership
