// A keyed, doubly linked list of rows in fixed pages.
//
// The simulator's LRU and FIFO structures (the baseline caches, the
// erasure tier's chunk directory, the re-stripe repair queue, the hashing
// proxies' in-flight routes) all need the same three things: find the row
// of key K, keep rows in one recency or arrival order, and move or drop a
// row in O(1).  std::list + std::unordered_map answer that with two heap
// nodes per key and a pointer chase per step.  Here rows live in pages,
// the order is threaded through them by 32-bit row numbers, a
// util::FlatIndex maps keys to rows, and released rows are recycled
// through a free list before a new row is taken — after warm-up nothing
// allocates.
//
// Pages never move or grow once allocated, so a push never moves a row
// and references to rows stay valid until the row is erased.  The first
// page holds 64 rows and each next one twice as many up to kMaxPageRows
// (4,096), after which every page holds kMaxPageRows: a list never holds
// more than one page of unused rows and a small list stays small.  A
// single reallocating vector would hold up to twice its rows, and three
// times while it grows.  A table of pointers to 64-row chunks of the
// pages finds a row from its number: row s is chunk s >> 6, row s & 63.
//
// Each value carries its own key: T provides `std::uint64_t key() const`,
// and that row is the only place the key is stored.  A row is the value
// plus two 32-bit links.  The index spends 4/3 to 8/3 buckets of 8 bytes
// (a 32-bit tag and the row number) per key and reads the key from the
// row.  The chunk table adds one pointer per 64 rows.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_index.h"

namespace adc::util {

template <typename T>
class KeyedList {
 public:
  using Slot = std::uint32_t;

  /// Marks "no row": the end of the list, or find() on an absent key.
  static constexpr Slot kNil = FlatIndex::kNone;

  /// Rows in the first page; each next page holds twice as many, up to
  /// kMaxPageRows.  Both are powers of two.
  static constexpr std::size_t kFirstPageRows = 64;
  static constexpr std::size_t kMaxPageRows = 4096;

  /// A row: the value plus its two links.  Public so an owner can pin its
  /// size next to T's definition.
  struct Row {
    T value;
    Slot prev = kNil;  // toward the front
    Slot next = kNil;  // toward the back (or the next free row)
  };

  /// Sizes the index for `expected` keys; rows take pages as they come.
  explicit KeyedList(std::size_t expected = 0) : index_(expected) {}

  /// A copy gets pages of its own, each with its full capacity, so pushes
  /// into the copy never move its rows either.
  KeyedList(const KeyedList& other)
      : index_(other.index_),
        used_(other.used_),
        head_(other.head_),
        tail_(other.tail_),
        free_(other.free_) {
    pages_.reserve(other.pages_.size());
    chunks_.reserve(other.chunks_.size());
    for (const std::vector<Row>& page : other.pages_) {
      add_page();
      pages_.back().assign(page.begin(), page.end());
    }
  }
  KeyedList& operator=(const KeyedList& other) {
    if (this != &other) *this = KeyedList(other);
    return *this;
  }
  KeyedList(KeyedList&&) noexcept = default;
  KeyedList& operator=(KeyedList&&) noexcept = default;

  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }

  /// The row holding `key`, or kNil.
  Slot find(std::uint64_t key) const noexcept { return index_.find(key, KeyOf{this}); }
  bool contains(std::uint64_t key) const noexcept { return index_.contains(key, KeyOf{this}); }

  /// A live row's value; callers must not change its key.
  T& operator[](Slot slot) noexcept { return row(slot).value; }
  const T& operator[](Slot slot) const noexcept { return row(slot).value; }

  /// Ends of the list and the links between them (kNil past either end).
  Slot front() const noexcept { return head_; }
  Slot back() const noexcept { return tail_; }
  Slot next(Slot slot) const noexcept { return row(slot).next; }
  Slot prev(Slot slot) const noexcept { return row(slot).prev; }

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
    Row& r = row(slot);
    index_.erase(r.value.key(), slot);
    r.next = free_;
    free_ = slot;
    return r.value;
  }

  /// Erases the row of `key`; returns false when it was absent.
  bool erase_key(std::uint64_t key) {
    const Slot slot = find(key);
    if (slot == kNil) return false;
    erase(slot);
    return true;
  }

  /// Drops every row; keeps the pages and the index's capacity, and new
  /// rows take slots from 0 again.
  void clear() noexcept {
    for (std::vector<Row>& page : pages_) page.clear();
    index_.clear();
    used_ = 0;
    head_ = tail_ = free_ = kNil;
  }

  /// Visits the values from front to back.  `fn` must not modify the list.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Slot slot = head_; slot != kNil; slot = row(slot).next) fn(row(slot).value);
  }

 private:
  static constexpr unsigned kFirstShift = std::countr_zero(kFirstPageRows);
  static constexpr unsigned kMaxShift = std::countr_zero(kMaxPageRows);
  static_assert(std::has_single_bit(kFirstPageRows) && std::has_single_bit(kMaxPageRows) &&
                kFirstPageRows <= kMaxPageRows);

  /// The page holding slot s: s is row n = s + kFirstPageRows of a run of
  /// pages sized 64, 128, ... (page p starts at n = 64 << p) until they
  /// reach kMaxPageRows, after which page p starts at n = (p - 5) << 12.
  /// Either way the page is (n >> shift) + shift - 7, with
  /// shift = min(floor(log2 n), 12).  Every page boundary is a multiple of
  /// kFirstPageRows, so each chunk lies in one page.
  static std::size_t page_of(Slot slot) noexcept {
    const std::size_t n = std::size_t{slot} + kFirstPageRows;
    const unsigned shift = std::min(static_cast<unsigned>(std::bit_width(n)) - 1, kMaxShift);
    return (n >> shift) + shift - (kFirstShift + 1);
  }
  static std::size_t page_rows(std::size_t page) noexcept {
    return page < kMaxShift - kFirstShift ? kFirstPageRows << page : kMaxPageRows;
  }

  const Row& row(Slot slot) const noexcept {
    return chunks_[slot >> kFirstShift][slot & (kFirstPageRows - 1)];
  }
  Row& row(Slot slot) noexcept { return const_cast<Row&>(std::as_const(*this).row(slot)); }

  /// What the index reads a slot's key through.
  struct KeyOf {
    const KeyedList* list;
    std::uint64_t operator()(Slot slot) const noexcept { return list->row(slot).value.key(); }
  };

  /// Appends the next page, reserved in full, and its chunks.
  void add_page() {
    const std::size_t rows = page_rows(pages_.size());
    std::vector<Row>& page = pages_.emplace_back();
    page.reserve(rows);
    for (std::size_t at = 0; at < rows; at += kFirstPageRows) chunks_.push_back(page.data() + at);
  }

  Slot acquire(const T& value) {
    assert(!contains(value.key()));
    Slot slot = free_;
    if (slot != kNil) {
      Row& r = row(slot);
      free_ = r.next;
      r.value = value;
    } else {
      slot = static_cast<Slot>(used_++);
      const std::size_t page = page_of(slot);
      if (page == pages_.size()) add_page();
      pages_[page].push_back(Row{value, kNil, kNil});
    }
    index_.assign(value.key(), slot, KeyOf{this});
    return slot;
  }

  void link_front(Slot slot) noexcept {
    Row& r = row(slot);
    r.prev = kNil;
    r.next = head_;
    (head_ == kNil ? tail_ : row(head_).prev) = slot;
    head_ = slot;
  }

  void link_back(Slot slot) noexcept {
    Row& r = row(slot);
    r.next = kNil;
    r.prev = tail_;
    (tail_ == kNil ? head_ : row(tail_).next) = slot;
    tail_ = slot;
  }

  void unlink(Slot slot) noexcept {
    const Row& r = row(slot);
    (r.prev == kNil ? head_ : row(r.prev).next) = r.next;
    (r.next == kNil ? tail_ : row(r.next).prev) = r.prev;
  }

  /// Page p holds page_rows(p) rows; only the last one in use is partly
  /// filled, and each is reserved in full when it is added, so its rows
  /// never move.  chunks_[c] points at row 64c, in whichever page holds it
  /// (a moved list keeps its pages' buffers, so the pointers stay valid).
  std::vector<std::vector<Row>> pages_;
  std::vector<Row*> chunks_;
  FlatIndex index_;
  std::size_t used_ = 0;  // slots handed out since construction or clear()
  Slot head_ = kNil;
  Slot tail_ = kNil;
  Slot free_ = kNil;
};

}  // namespace adc::util
