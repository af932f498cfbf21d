// The ADC single-table: a capacity-bounded LRU list of mapping entries
// (paper Section III.3.1).
//
// New or re-inserted entries go on top; the bottom entry drops out when
// the table overflows.  The paper implemented the lookup as an element-wise
// scan of a linked list and identifies that scan as a dominant cost of
// large tables (Section V.3.3).  Two implementations, selectable via
// TableImpl:
//  * kFaithful — a std::list scanned element by element: the paper's
//    structure, whose cost Figure 15 measures.
//  * kIndexed — the same LRU order as a util::KeyedList reserved for the
//    full capacity (a linked list threaded through one array of rows plus
//    a flat hash index from object id to row): every operation O(1), no
//    allocation after construction.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "cache/table_entry.h"
#include "util/types.h"

namespace adc::cache {

/// Internal data-structure strategy for the mapping tables.
enum class TableImpl {
  kFaithful,  // the paper's structures: linear scans / position shifting
  kIndexed,   // flat-indexed production variant
};

class SingleTable {
 public:
  explicit SingleTable(std::size_t capacity) : capacity_(capacity) {}
  virtual ~SingleTable() = default;

  SingleTable(const SingleTable&) = delete;
  SingleTable& operator=(const SingleTable&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return size() == 0; }
  bool full() const noexcept { return size() >= capacity_; }

  virtual std::size_t size() const noexcept = 0;
  virtual TableImpl impl() const noexcept = 0;

  bool contains(ObjectId object) const noexcept { return find(object) != nullptr; }

  /// Read-only view of an entry; nullptr when absent.  Does not touch
  /// recency (the ADC algorithm only reorders through remove + insert).
  virtual const TableEntry* find(ObjectId object) const noexcept = 0;

  /// Mutable view for in-place edits of fields that are not ordering keys
  /// (location, claim, version).  Recency is untouched.
  virtual TableEntry* find_mutable(ObjectId object) noexcept = 0;

  /// Removes and returns the entry (the paper's RemoveEntry).
  virtual std::optional<TableEntry> remove(ObjectId object) = 0;

  /// Inserts on top (most recent); if the table is full the bottom entry
  /// drops out and is returned (paper: "the last element ... drops out").
  std::optional<TableEntry> insert_on_top(const TableEntry& entry) {
    std::optional<TableEntry> evicted;
    if (full()) evicted = remove_last();
    push_front(entry);
    return evicted;
  }

  /// Removes and returns the bottom (least recent) entry.
  virtual std::optional<TableEntry> remove_last() = 0;

  virtual const TableEntry* top() const noexcept = 0;
  virtual const TableEntry* bottom() const noexcept = 0;

  virtual void clear() = 0;

  /// Entries from most to least recent (tests / diagnostics).
  virtual std::vector<TableEntry> snapshot() const = 0;

 private:
  /// Links a new entry on top; requires !full() and an absent object.
  virtual void push_front(const TableEntry& entry) = 0;

  std::size_t capacity_;
};

/// Factory: builds the requested implementation.
std::unique_ptr<SingleTable> make_single_table(std::size_t capacity, TableImpl impl);

}  // namespace adc::cache
