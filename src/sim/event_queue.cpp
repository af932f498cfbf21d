#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace adc::sim {
namespace {

/// Heap order: std::*_heap keep the "largest" element in front, so "later"
/// ranks as smaller to surface the earliest event.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Takes a recycled slot when one is free, else appends one.
template <typename T>
std::uint32_t acquire(std::vector<T>& slots, std::vector<std::uint32_t>& free, T value) {
  if (free.empty()) {
    slots.push_back(std::move(value));
    return static_cast<std::uint32_t>(slots.size() - 1);
  }
  const std::uint32_t slot = free.back();
  free.pop_back();
  slots[slot] = std::move(value);
  return slot;
}

}  // namespace

void EventQueue::schedule(SimTime at, Action action) {
  push(at, acquire(actions_, free_actions_, std::move(action)), false);
}

void EventQueue::schedule_delivery(SimTime at, const Message& msg) {
  push(at, acquire(messages_, free_messages_, msg), true);
}

SimTime EventQueue::run_next() {
  return run_next([](const Message&) { assert(false && "delivery in an action-only queue"); });
}

void EventQueue::push(SimTime at, std::uint32_t slot, bool delivery) {
  assert(at >= last_popped_ && "cannot schedule into the past");
  heap_.push_back(Key{at, next_seq_++, slot, delivery});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Key EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  last_popped_ = key.time;
  ++executed_;
  return key;
}

}  // namespace adc::sim
