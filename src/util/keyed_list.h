// A keyed, doubly linked list of rows in one growable slab.
//
// The simulator's LRU and FIFO structures (the baseline caches, the
// erasure tier's chunk directory, the re-stripe repair queue, the hashing
// proxies' in-flight routes) all need the same three things: find the row
// of key K, keep rows in one recency or arrival order, and move or drop a
// row in O(1).  std::list + std::unordered_map answer that with two heap
// nodes per key and a pointer chase per step.  Here rows live in one
// vector, the order is threaded through them by 32-bit row numbers, a
// util::FlatIndex maps keys to rows, and released rows are recycled
// through a free list before the slab grows — after warm-up nothing
// allocates.  A list reserved for its final population never reallocates,
// so references to rows stay valid; otherwise a push may move the slab.
//
// Each value carries its own key: T provides `std::uint64_t key() const`,
// so a row is the value plus two links and no key is stored twice.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_index.h"

namespace adc::util {

template <typename T>
class KeyedList {
 public:
  using Slot = std::uint32_t;

  /// Marks "no row": the end of the list, or find() on an absent key.
  static constexpr Slot kNil = FlatIndex::kNone;

  /// Reserves room for `expected` rows without growing.
  explicit KeyedList(std::size_t expected = 0) : index_(expected) { rows_.reserve(expected); }

  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }

  /// The row holding `key`, or kNil.
  Slot find(std::uint64_t key) const noexcept { return index_.find(key); }
  bool contains(std::uint64_t key) const noexcept { return index_.contains(key); }

  /// A live row's value; callers must not change its key.
  T& operator[](Slot slot) noexcept { return rows_[slot].value; }
  const T& operator[](Slot slot) const noexcept { return rows_[slot].value; }

  /// Ends of the list and the links between them (kNil past either end).
  Slot front() const noexcept { return head_; }
  Slot back() const noexcept { return tail_; }
  Slot next(Slot slot) const noexcept { return rows_[slot].next; }
  Slot prev(Slot slot) const noexcept { return rows_[slot].prev; }

  /// Links a new row for `value`, whose key must be absent, at either end.
  Slot push_front(const T& value) {
    const Slot slot = acquire(value);
    link_front(slot);
    return slot;
  }
  Slot push_back(const T& value) {
    const Slot slot = acquire(value);
    link_back(slot);
    return slot;
  }

  void move_to_front(Slot slot) noexcept {
    if (slot == head_) return;
    unlink(slot);
    link_front(slot);
  }
  void move_to_back(Slot slot) noexcept {
    if (slot == tail_) return;
    unlink(slot);
    link_back(slot);
  }

  /// Unlinks a live row, drops its key and recycles it; returns its value.
  T erase(Slot slot) {
    unlink(slot);
    Row& r = rows_[slot];
    index_.erase(r.value.key());
    r.next = free_;
    free_ = slot;
    return r.value;
  }

  /// Erases the row of `key`; returns false when it was absent.
  bool erase_key(std::uint64_t key) {
    const Slot slot = index_.find(key);
    if (slot == kNil) return false;
    erase(slot);
    return true;
  }

  /// Drops every row; keeps the slab's and the index's capacity.
  void clear() noexcept {
    rows_.clear();
    index_.clear();
    head_ = tail_ = free_ = kNil;
  }

  /// Visits the values from front to back.  `fn` must not modify the list.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Slot slot = head_; slot != kNil; slot = rows_[slot].next) fn(rows_[slot].value);
  }

 private:
  struct Row {
    T value;
    Slot prev = kNil;  // toward the front
    Slot next = kNil;  // toward the back (or the next free row)
  };

  Slot acquire(const T& value) {
    assert(!index_.contains(value.key()));
    Slot slot = free_;
    if (slot != kNil) {
      free_ = rows_[slot].next;
      rows_[slot].value = value;
    } else {
      slot = static_cast<Slot>(rows_.size());
      rows_.push_back(Row{value, kNil, kNil});
    }
    index_.assign(value.key(), slot);
    return slot;
  }

  void link_front(Slot slot) noexcept {
    Row& r = rows_[slot];
    r.prev = kNil;
    r.next = head_;
    (head_ == kNil ? tail_ : rows_[head_].prev) = slot;
    head_ = slot;
  }

  void link_back(Slot slot) noexcept {
    Row& r = rows_[slot];
    r.next = kNil;
    r.prev = tail_;
    (tail_ == kNil ? head_ : rows_[tail_].next) = slot;
    tail_ = slot;
  }

  void unlink(Slot slot) noexcept {
    const Row& r = rows_[slot];
    (r.prev == kNil ? head_ : rows_[r.prev].next) = r.next;
    (r.next == kNil ? tail_ : rows_[r.next].prev) = r.prev;
  }

  std::vector<Row> rows_;
  FlatIndex index_;
  Slot head_ = kNil;
  Slot tail_ = kNil;
  Slot free_ = kNil;
};

}  // namespace adc::util
