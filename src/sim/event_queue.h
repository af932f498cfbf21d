// Deterministic discrete-event queue.
//
// Events at equal simulated times are delivered in scheduling order, so a
// fixed seed reproduces the exact same simulation — the property all
// replay tests rely on.
//
// Two kinds of event share one order:
//  * message deliveries — the bulk of every run, one per transfer.  They
//    are typed: the Message is copied into a recycled slot and handed to
//    the caller's delivery function when popped, so a steady-state send
//    allocates nothing;
//  * actions — arbitrary closures (request injection, timers, membership
//    changes), kept in the same recycled slots.
//
// Times are integer ticks that never run backwards, so the queue is a
// two-level calendar queue (Brown, CACM 1988):
//  * the near level is a ring of kHorizon per-tick FIFO buckets covering
//    [now, now + kHorizon), linked through the event slots and found
//    through an occupancy bitmap — filing and popping are O(1);
//  * events at or beyond the horizon wait in a (time, sequence) min-heap
//    and move into their bucket as soon as the clock brings them inside
//    it, before anything else can be filed there.
// A bucket therefore holds one tick's events in scheduling order, which
// is exactly the (time, sequence) order of a single heap.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.h"
#include "util/types.h"

namespace adc::sim {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Ticks the near ring covers: above the 2,000-tick request timeout, so
  /// a run's timers land in a bucket too.  A power of two, so a tick's
  /// bucket is its low bits.
  static constexpr SimTime kHorizon = 4096;

  /// Schedules `action` at absolute time `at`.  Throws std::logic_error
  /// when `at` is before now().
  void schedule(SimTime at, Action action);

  /// Schedules the delivery of `msg` at absolute time `at` (same rule).
  /// The queue keeps its own copy.
  void schedule_delivery(SimTime at, const Message& msg);

  bool empty() const noexcept { return near_count_ == 0 && far_.empty(); }
  std::size_t size() const noexcept { return near_count_ + far_.size(); }

  /// Time of the next event; kSimTimeMax when empty.
  SimTime next_time() const noexcept;

  /// Time of the most recently popped event (0 before the first): the
  /// simulation clock, already advanced while that event runs.
  SimTime now() const noexcept { return now_; }

  /// Pops the earliest event and runs it: an action is called, a delivery
  /// is handed to `deliver(const Message&)`.  Returns the event's time.
  /// Requires !empty().  The event's slot is recycled before it runs, so
  /// it may schedule further events freely.
  template <typename Deliver>
  SimTime run_next(Deliver&& deliver) {
    const std::uint32_t slot = pop();
    const SimTime at = now_;
    Event& event = events_[slot];
    if (event.delivery) {
      const Message msg = event.message;
      free_.push_back(slot);
      deliver(msg);
    } else {
      Action action = std::move(event.action);
      free_.push_back(slot);
      action();
    }
    return at;
  }

  /// run_next() for queues that only hold actions.
  SimTime run_next();

  /// Total events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::uint32_t kMask = static_cast<std::uint32_t>(kHorizon - 1);
  static constexpr std::size_t kWords = static_cast<std::size_t>(kHorizon) / 64;
  static_assert((kHorizon & (kHorizon - 1)) == 0 && kWords <= 64,
                "one summary word must cover the occupancy bitmap");

  struct Event {
    std::uint32_t next = kNil;  // next event in the same bucket
    bool delivery = false;
    Message message;  // a delivery's payload
    Action action;    // an action's payload
  };
  struct Bucket {
    std::uint32_t head = kNil;  // kNil when the tick has no event
    std::uint32_t tail = kNil;
  };
  struct FarKey {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  void check_not_past(SimTime at) const {
    if (at < now_) [[unlikely]] throw_past(at);
  }
  [[noreturn]] void throw_past(SimTime at) const;
  /// A free slot of events_, recycled when one is.
  std::uint32_t acquire();
  void file(SimTime at, std::uint32_t slot);
  void append(SimTime at, std::uint32_t slot);
  /// Moves every far event now inside the horizon into its bucket.
  void migrate();
  /// The first occupied bucket at or after now's.  Requires near_count_.
  std::uint32_t next_bucket() const noexcept;
  std::uint32_t pop();

  std::vector<Event> events_;
  std::vector<std::uint32_t> free_;

  std::array<Bucket, static_cast<std::size_t>(kHorizon)> buckets_;
  std::array<std::uint64_t, kWords> occupied_{};  // one bit per bucket
  std::uint64_t occupied_words_ = 0;              // one bit per nonzero word
  std::size_t near_count_ = 0;

  std::vector<FarKey> far_;  // min-heap on (time, seq)
  std::uint64_t next_seq_ = 0;

  std::uint64_t executed_ = 0;
  SimTime now_ = 0;
};

}  // namespace adc::sim
