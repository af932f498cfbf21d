// Transition-gated anti-entropy scheduling.
//
// Resolver tables only diverge when membership churns (a partition, a
// crash, a rejoin) — steady state keeps them consistent through the
// request/backwarding path itself.  So repair rounds are not a free-running
// background process: the scheduler arms for a fixed number of rounds each
// time the failure detector reports a transition, then goes quiet again.
// A zero-churn run therefore sends *zero* repair traffic, which is what
// keeps detector-enabled simulations bit-identical to detector-free ones.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace adc::membership {

struct RepairConfig {
  /// Gap between successive repair rounds while armed (transport clock
  /// units: sim ticks under the Simulator, microseconds live).
  SimTime interval = 400;
};

/// Decides *when* a repair round fires; the owner decides what a round
/// does (offer opinions to every currently-alive peer).
class RepairScheduler {
 public:
  /// Rounds fired per detector transition.  Each membership change
  /// (death, join, suspicion, refutation) re-arms the full budget, so a
  /// partition heal — which surfaces as a burst of rejoin transitions —
  /// buys enough rounds to reconverge even when single offers collide.
  static constexpr std::uint32_t kRoundsPerTransition = 3;

  explicit RepairScheduler(RepairConfig config) : config_(config) {}

  /// Arms (or re-arms) the round budget.  Call on any detector transition.
  void note_transition(SimTime now) {
    rounds_remaining_ = kRoundsPerTransition;
    if (next_round_at_ < now + config_.interval) next_round_at_ = now + config_.interval;
  }

  /// True exactly when a round should fire now; consumes one round.
  bool next_round(SimTime now) {
    if (rounds_remaining_ == 0 || now < next_round_at_) return false;
    --rounds_remaining_;
    next_round_at_ = now + config_.interval;
    ++rounds_fired_;
    return true;
  }

  bool armed() const noexcept { return rounds_remaining_ > 0; }
  std::uint64_t rounds_fired() const noexcept { return rounds_fired_; }
  const RepairConfig& config() const noexcept { return config_; }

 private:
  RepairConfig config_;
  std::uint32_t rounds_remaining_ = 0;
  SimTime next_round_at_ = 0;
  std::uint64_t rounds_fired_ = 0;
};

}  // namespace adc::membership
