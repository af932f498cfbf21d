#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
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

}  // namespace

void EventQueue::schedule(SimTime at, Action action) {
  check_not_past(at);
  const std::uint32_t slot = acquire();
  events_[slot].delivery = false;
  events_[slot].action = std::move(action);
  file(at, slot);
}

void EventQueue::schedule_delivery(SimTime at, const Message& msg) {
  check_not_past(at);
  const std::uint32_t slot = acquire();
  events_[slot].delivery = true;
  events_[slot].message = msg;
  file(at, slot);
}

SimTime EventQueue::run_next() {
  return run_next([](const Message&) { assert(false && "delivery in an action-only queue"); });
}

void EventQueue::throw_past(SimTime at) const {
  throw std::logic_error("EventQueue: cannot schedule into the past (at " + std::to_string(at) +
                         ", now " + std::to_string(now_) + ")");
}

SimTime EventQueue::next_time() const noexcept {
  if (near_count_ != 0) {
    const std::uint32_t bucket = next_bucket();
    return now_ + ((bucket - static_cast<std::uint32_t>(now_)) & kMask);
  }
  return far_.empty() ? kSimTimeMax : far_.front().time;
}

std::uint32_t EventQueue::acquire() {
  if (free_.empty()) {
    events_.emplace_back();
    return static_cast<std::uint32_t>(events_.size() - 1);
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  return slot;
}

void EventQueue::file(SimTime at, std::uint32_t slot) {
  if (at - now_ < kHorizon) {
    append(at, slot);
    return;
  }
  far_.push_back(FarKey{at, next_seq_++, slot});
  std::push_heap(far_.begin(), far_.end(), Later{});
}

void EventQueue::append(SimTime at, std::uint32_t slot) {
  events_[slot].next = kNil;
  const std::uint32_t index = static_cast<std::uint32_t>(at) & kMask;
  Bucket& bucket = buckets_[index];
  if (bucket.head == kNil) {
    bucket.head = slot;
    occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
    occupied_words_ |= std::uint64_t{1} << (index >> 6);
  } else {
    events_[bucket.tail].next = slot;
  }
  bucket.tail = slot;
  ++near_count_;
}

void EventQueue::migrate() {
  while (!far_.empty() && far_.front().time - now_ < kHorizon) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    append(far_.back().time, far_.back().slot);
    far_.pop_back();
  }
}

std::uint32_t EventQueue::next_bucket() const noexcept {
  // Buckets ahead of now's in ring order hold later ticks; the ones behind
  // it hold the ticks that wrapped past the end of the ring.
  const std::uint32_t from = static_cast<std::uint32_t>(now_) & kMask;
  const std::uint32_t word = from >> 6;
  const std::uint64_t here = occupied_[word] & (~std::uint64_t{0} << (from & 63));
  if (here != 0) return (word << 6) | static_cast<std::uint32_t>(std::countr_zero(here));
  std::uint64_t words = word == 63 ? 0 : occupied_words_ & (~std::uint64_t{0} << (word + 1));
  if (words == 0) words = occupied_words_;
  const auto next = static_cast<std::uint32_t>(std::countr_zero(words));
  return (next << 6) | static_cast<std::uint32_t>(std::countr_zero(occupied_[next]));
}

std::uint32_t EventQueue::pop() {
  assert(!empty());
  if (near_count_ == 0) {
    // The ring ran dry: jump the clock to the earliest far event.
    now_ = far_.front().time;
    migrate();
  }
  const std::uint32_t index = next_bucket();
  const SimTime at = now_ + ((index - static_cast<std::uint32_t>(now_)) & kMask);
  Bucket& bucket = buckets_[index];
  const std::uint32_t slot = bucket.head;
  bucket.head = events_[slot].next;
  if (bucket.head == kNil) {
    std::uint64_t& word = occupied_[index >> 6];
    word &= ~(std::uint64_t{1} << (index & 63));
    if (word == 0) occupied_words_ &= ~(std::uint64_t{1} << (index >> 6));
  }
  --near_count_;
  ++executed_;
  if (at != now_) {
    now_ = at;
    migrate();
  }
  return slot;
}

}  // namespace adc::sim
