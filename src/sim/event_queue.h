// Deterministic discrete-event queue.
//
// Events at equal simulated times are delivered in scheduling order (a
// monotone sequence number breaks ties), so a fixed seed reproduces the
// exact same simulation — the property all replay tests rely on.
//
// Two kinds of event share one order:
//  * message deliveries — the bulk of every run, one per transfer.  They
//    are typed: the Message is copied into a recycled slot and handed to
//    the caller's delivery function when popped, so a steady-state send
//    allocates nothing;
//  * actions — arbitrary closures (request injection, timers, membership
//    changes), kept in recycled slots of their own.
// The heap itself orders small {time, sequence, slot} keys, never the
// payloads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.h"
#include "util/types.h"

namespace adc::sim {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute time `at` (must be >= the time of the
  /// most recently popped event).
  void schedule(SimTime at, Action action);

  /// Schedules the delivery of `msg` at absolute time `at` (same rule).
  /// The queue keeps its own copy.
  void schedule_delivery(SimTime at, const Message& msg);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the next event; kSimTimeMax when empty.
  SimTime next_time() const noexcept {
    return heap_.empty() ? kSimTimeMax : heap_.front().time;
  }

  /// Pops the earliest event and runs it: an action is called, a delivery
  /// is handed to `deliver(const Message&)`.  Returns the event's time.
  /// Requires !empty().  The event's slot is recycled before it runs, so
  /// it may schedule further events freely.
  template <typename Deliver>
  SimTime run_next(Deliver&& deliver) {
    const Key key = pop();
    if (key.delivery) {
      const Message msg = messages_[key.slot];
      free_messages_.push_back(key.slot);
      deliver(msg);
    } else {
      Action action = std::move(actions_[key.slot]);
      free_actions_.push_back(key.slot);
      action();
    }
    return key.time;
  }

  /// run_next() for queues that only hold actions.
  SimTime run_next();

  /// Total events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into messages_ or actions_
    bool delivery;
  };

  void push(SimTime at, std::uint32_t slot, bool delivery);
  Key pop();

  std::vector<Key> heap_;  // min-heap on (time, seq)
  std::vector<Message> messages_;
  std::vector<std::uint32_t> free_messages_;
  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_actions_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  SimTime last_popped_ = 0;
};

}  // namespace adc::sim
