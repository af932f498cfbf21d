// The ADC ordered tables (multiple-table and caching table, paper Sections
// III.3.2-III.3.3): capacity-bounded tables kept in ascending order of the
// aged average request time.
//
// Ordering uses the time-invariant skew (average - last) — see
// table_entry.h — with insertion order breaking ties, so the "worst" entry
// (largest aged value) is always the physical last row, matching the
// paper's "new objects have to outperform at least the worst case in the
// last row".
//
// Two implementations, selectable via TableImpl:
//  * kFaithful — a sorted contiguous array: ordered insert/remove via
//    binary search plus element shifting, object lookup via linear scan.
//    This is the structure whose cost the paper measures in Figure 15.
//  * kIndexed — rows in a fixed array, a binary max-heap of ordering keys
//    and a flat hash index from object id to row: lookups O(1), inserts and
//    removals O(log n), worst() O(1), no allocation after construction.
//    best() and for_each() sort or scan (tests, diagnostics and
//    anti-entropy rounds only).
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cache/single_table.h"  // TableImpl
#include "cache/table_entry.h"
#include "util/types.h"

namespace adc::cache {

class OrderedTable {
 public:
  explicit OrderedTable(std::size_t capacity) : capacity_(capacity) {}
  virtual ~OrderedTable() = default;

  OrderedTable(const OrderedTable&) = delete;
  OrderedTable& operator=(const OrderedTable&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return size() >= capacity_; }
  bool empty() const noexcept { return size() == 0; }

  virtual std::size_t size() const noexcept = 0;
  virtual bool contains(ObjectId object) const noexcept = 0;

  /// Read-only view; nullptr when absent.
  virtual const TableEntry* find(ObjectId object) const noexcept = 0;

  /// Mutable view for in-place edits of fields that are not ordering keys
  /// (location, claim, version — the order depends on skew alone).
  virtual TableEntry* find_mutable(ObjectId object) noexcept = 0;

  /// Removes and returns an entry by object id (the paper's RemoveEntry).
  virtual std::optional<TableEntry> remove(ObjectId object) = 0;

  /// Ordered insert (the paper's InsertOrdered).  Requires !full() —
  /// eviction decisions belong to Update_Entry, not the table.
  virtual void insert(TableEntry entry) = 0;

  /// Removes and returns the worst (largest aged value) entry — the
  /// paper's RemoveLastEntry.
  virtual std::optional<TableEntry> remove_worst() = 0;

  /// The worst entry, or nullptr when empty.
  virtual const TableEntry* worst() const noexcept = 0;

  /// The best (hottest) entry, or nullptr when empty.
  virtual const TableEntry* best() const noexcept = 0;

  virtual void clear() = 0;

  /// Visits entries best-to-worst (tests / diagnostics).
  virtual void for_each(const std::function<void(const TableEntry&)>& fn) const = 0;

  /// Aged value of the worst entry at `now`; +infinity while the table has
  /// spare capacity, so anything qualifies until the table fills (the paper
  /// applies the outperform rule "once the table is filled").
  double worst_aged(SimTime now) const noexcept {
    if (!full()) return std::numeric_limits<double>::infinity();
    return worst()->aged(now);
  }

  /// Convenience for tests.
  std::vector<TableEntry> snapshot() const {
    std::vector<TableEntry> out;
    out.reserve(size());
    for_each([&out](const TableEntry& e) { out.push_back(e); });
    return out;
  }

 private:
  std::size_t capacity_;
};

/// Factory: builds the requested implementation.
std::unique_ptr<OrderedTable> make_ordered_table(std::size_t capacity, TableImpl impl);

}  // namespace adc::cache
