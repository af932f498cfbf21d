// Row stores for the ADC mapping tables (paper Section III.3): the
// single-table, an LRU list of recent requests, and the multiple- and
// caching tables, each kept in ascending order of the aged average
// request time.
//
// The ordered tables key on the time-invariant skew (average - last, see
// table_entry.h) with insertion order breaking ties, so the "worst" entry
// (largest aged value) is the paper's last row: "new objects have to
// outperform at least the worst case in the last row".
//
// Update_Entry (paper Figure 8) is written once, in core::MappingTables,
// against the small handle API both stores share:
//   locate(object)       -> Handle {table, found()}
//   entry(handle)        -> the TableEntry
//   refresh(handle)      -> re-place a touched entry in its own table
//   detach / attach      -> take an entry out of its table, link it into one
//   move(handle, table)  -> detach + attach
//   worst(table), tail() -> the ordered tables' last rows, the LRU bottom
//   insert, erase, erase_if, for_each, clear
// An attach always ranks the entry as the newest insert: after every equal
// key in an ordered table, on top of the single-table.
//
// Two implementations, selected by TableImpl:
//  * FaithfulRows — the paper's structures: two sorted arrays (binary-
//    searched insert, element shifting) and a linked list, every object
//    lookup a linear scan, every move a copy.  Figure 15 measures this.
//  * IndexedRows — one slab of 64-byte rows for all three tables and one
//    util::FlatIndex from object id to row.  Caching and multiple are
//    binary max-heaps of row ids on (skew, insertion seq); the single-table
//    is an LRU list threaded through the rows.  A refresh re-sifts its row
//    in place; a move relinks the row without copying the entry or touching
//    the index.  Nothing allocates after construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <variant>
#include <vector>

#include "cache/table_entry.h"
#include "util/flat_index.h"
#include "util/types.h"

namespace adc::cache {

/// Internal data-structure strategy for the mapping tables.
enum class TableImpl {
  kFaithful,  // the paper's structures: linear scans / position shifting
  kIndexed,   // flat-indexed production variant
};

/// The three mapping tables.
enum class TableId : std::uint8_t {
  kCaching,
  kMultiple,
  kSingle,
};

struct TableCapacities {
  std::size_t single = 0;
  std::size_t multiple = 0;
  std::size_t caching = 0;  // 0: no caching table (the ABL-SEL ablation)

  std::size_t of(TableId table) const noexcept {
    return table == TableId::kSingle ? single
                                     : (table == TableId::kMultiple ? multiple : caching);
  }
};

/// The paper's structures.
class FaithfulRows {
 public:
  struct Handle {
    TableId table = TableId::kSingle;
    bool present = false;
    std::size_t pos = 0;                          // ordered tables: array position
    std::list<TableEntry>::const_iterator node;   // single-table: list node
    bool found() const noexcept { return present; }
  };
  /// An entry taken out of its table: a copy, as the paper moves entries.
  struct Detached {
    TableEntry entry;
  };

  explicit FaithfulRows(const TableCapacities& capacities);

  std::size_t size(TableId table) const noexcept {
    return table == TableId::kSingle ? single_.size() : ordered(table).size();
  }
  std::size_t capacity(TableId table) const noexcept { return capacities_.of(table); }

  /// Linear scans, caching then multiple then single.
  Handle locate(ObjectId object) const noexcept;

  TableEntry& entry(const Handle& h) noexcept {
    return h.table == TableId::kSingle ? const_cast<TableEntry&>(*h.node)
                                       : ordered(h.table)[h.pos];
  }
  const TableEntry& entry(const Handle& h) const noexcept {
    return h.table == TableId::kSingle ? *h.node : ordered(h.table)[h.pos];
  }

  /// Requires a non-empty ordered table / single-table.
  Handle worst(TableId table) const noexcept;
  Handle tail() const noexcept;

  Handle refresh(const Handle& h) { return attach(detach(h), h.table); }
  Detached detach(const Handle& h);
  Handle attach(const Detached& d, TableId table);
  Handle move(const Handle& h, TableId table) { return attach(detach(h), table); }
  Handle insert(TableId table, const TableEntry& e) { return attach(Detached{e}, table); }
  void erase(const Handle& h) { detach(h); }

  /// Visits a table best-to-worst (single-table: top to bottom).
  template <typename Fn>
  void for_each(TableId table, Fn&& fn) const {
    if (table == TableId::kSingle) {
      for (const TableEntry& e : single_) fn(e);
    } else {
      for (const TableEntry& e : ordered(table)) fn(e);
    }
  }

  /// Drops every entry of `table` that `pred` selects; returns how many.
  template <typename Pred>
  std::size_t erase_if(TableId table, Pred&& pred) {
    if (table == TableId::kSingle) return single_.remove_if(pred);
    std::vector<TableEntry>& rows = ordered(table);
    const std::size_t before = rows.size();
    std::erase_if(rows, pred);
    return before - rows.size();
  }

  void clear() noexcept;

 private:
  std::vector<TableEntry>& ordered(TableId table) noexcept {
    return table == TableId::kCaching ? caching_ : multiple_;
  }
  const std::vector<TableEntry>& ordered(TableId table) const noexcept {
    return table == TableId::kCaching ? caching_ : multiple_;
  }

  TableCapacities capacities_;
  std::vector<TableEntry> caching_;   // ascending skew
  std::vector<TableEntry> multiple_;  // ascending skew
  std::list<TableEntry> single_;      // front = most recent
};

/// One row slab and one index for all three tables.
class IndexedRows {
 public:
  /// Marks "no row" in a 30-bit link field.
  static constexpr std::uint32_t kNoRow = (1U << 30) - 1;

  struct Handle {
    TableId table = TableId::kSingle;
    std::uint32_t row = kNoRow;
    bool found() const noexcept { return row != kNoRow; }
  };
  /// A row unlinked from its table; still indexed, not yet free.
  struct Detached {
    std::uint32_t row;
  };

  explicit IndexedRows(const TableCapacities& capacities);

  std::size_t size(TableId table) const noexcept {
    return table == TableId::kSingle ? single_size_ : heap(table).size();
  }
  std::size_t capacity(TableId table) const noexcept { return capacities_.of(table); }

  Handle locate(ObjectId object) const noexcept {
    const std::uint32_t row = index_.find(object);
    if (row == util::FlatIndex::kNone) return {};
    return {table_of(row), row};
  }

  TableEntry& entry(const Handle& h) noexcept { return rows_[h.row].entry; }
  const TableEntry& entry(const Handle& h) const noexcept { return rows_[h.row].entry; }

  Handle worst(TableId table) const noexcept { return {table, heap(table).front()}; }
  Handle tail() const noexcept { return {TableId::kSingle, tail_}; }

  /// Ordered tables re-sift the row in place under a fresh seq; the
  /// single-table moves it to the top.
  Handle refresh(const Handle& h) noexcept;
  Detached detach(const Handle& h) noexcept;
  Handle attach(const Detached& d, TableId table) noexcept;
  Handle move(const Handle& h, TableId table) noexcept { return attach(detach(h), table); }
  Handle insert(TableId table, const TableEntry& e);
  void erase(const Handle& h) noexcept;

  template <typename Fn>
  void for_each(TableId table, Fn&& fn) const {
    if (table == TableId::kSingle) {
      for (std::uint32_t row = head_; row != kNoRow; row = rows_[row].aux) fn(rows_[row].entry);
    } else {
      for (const std::uint32_t row : sorted_rows(table)) fn(rows_[row].entry);
    }
  }

  template <typename Pred>
  std::size_t erase_if(TableId table, Pred&& pred) {
    std::vector<std::uint32_t> victims;
    if (table == TableId::kSingle) {
      for (std::uint32_t row = head_; row != kNoRow; row = rows_[row].aux) {
        if (pred(rows_[row].entry)) victims.push_back(row);
      }
    } else {
      for (const std::uint32_t row : heap(table)) {
        if (pred(rows_[row].entry)) victims.push_back(row);
      }
    }
    for (const std::uint32_t row : victims) erase({table, row});
    return victims.size();
  }

  void clear() noexcept;

  /// Renumbers the insertion seqs densely, keeping every table's order.
  /// Runs by itself before the 32-bit counter would wrap.
  void compact_seqs();

 private:
  struct Row {
    TableEntry entry;
    /// Bits 0-29: the row's heap position (ordered tables) or the previous
    /// row (single-table).  Bits 30-31: the TableId holding the row.
    std::uint32_t link = 0;
    /// Ordered tables: insertion seq.  Single-table and free rows: the
    /// next row.
    std::uint32_t aux = kNoRow;
  };
  static_assert(sizeof(Row) == 64, "a row is one cache line");

  static constexpr unsigned kTagShift = 30;

  TableId table_of(std::uint32_t row) const noexcept {
    return static_cast<TableId>(rows_[row].link >> kTagShift);
  }
  std::uint32_t low_link(std::uint32_t row) const noexcept { return rows_[row].link & kNoRow; }
  void set_link(std::uint32_t row, TableId table, std::uint32_t low) noexcept {
    rows_[row].link = (static_cast<std::uint32_t>(table) << kTagShift) | low;
  }

  std::vector<std::uint32_t>& heap(TableId table) noexcept {
    return table == TableId::kCaching ? caching_ : multiple_;
  }
  const std::vector<std::uint32_t>& heap(TableId table) const noexcept {
    return table == TableId::kCaching ? caching_ : multiple_;
  }

  /// Heap order: true when row `a` ranks before (is hotter than) row `b`.
  bool before(std::uint32_t a, std::uint32_t b) const noexcept {
    const Row& x = rows_[a];
    const Row& y = rows_[b];
    const SimTime sx = x.entry.skew();
    const SimTime sy = y.entry.skew();
    return sx != sy ? sx < sy : x.aux < y.aux;
  }
  std::uint32_t next_seq() {
    if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) compact_seqs();
    return next_seq_++;
  }
  void place(TableId table, std::size_t pos, std::uint32_t row) noexcept;
  void sift_up(TableId table, std::size_t pos) noexcept;
  void sift_down(TableId table, std::size_t pos) noexcept;
  void heap_push(TableId table, std::uint32_t row) noexcept;
  void heap_remove(TableId table, std::size_t pos) noexcept;
  void list_push_front(std::uint32_t row) noexcept;
  void list_unlink(std::uint32_t row) noexcept;
  /// A table's rows best-to-worst (sorts a copy of the heap).
  std::vector<std::uint32_t> sorted_rows(TableId table) const;

  TableCapacities capacities_;
  std::vector<Row> rows_;
  util::FlatIndex index_;
  std::vector<std::uint32_t> caching_;   // max-heap: [0] is the worst row
  std::vector<std::uint32_t> multiple_;  // max-heap: [0] is the worst row
  std::uint32_t head_ = kNoRow;          // single-table top (most recent)
  std::uint32_t tail_ = kNoRow;          // single-table bottom
  std::size_t single_size_ = 0;
  std::uint32_t free_ = kNoRow;          // free rows, chained through aux
  std::uint32_t next_seq_ = 0;
};

/// Either store, chosen once at construction; callers dispatch once per
/// operation through visit().
class TableStore {
 public:
  TableStore(TableImpl impl, const TableCapacities& capacities);

  template <typename Fn>
  decltype(auto) visit(Fn&& fn) {
    if (auto* indexed = std::get_if<IndexedRows>(&rows_)) return fn(*indexed);
    return fn(*std::get_if<FaithfulRows>(&rows_));
  }
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    if (const auto* indexed = std::get_if<IndexedRows>(&rows_)) return fn(*indexed);
    return fn(*std::get_if<FaithfulRows>(&rows_));
  }

 private:
  std::variant<IndexedRows, FaithfulRows> rows_;
};

/// Aged value of an ordered table's worst entry at `now`: +infinity while
/// the table has spare capacity, so anything qualifies until it fills (the
/// paper applies the outperform rule "once the table is filled"), and
/// -infinity for a table of capacity 0, which nothing enters.
template <typename Rows>
double worst_aged(const Rows& rows, TableId table, SimTime now) noexcept {
  const std::size_t capacity = rows.capacity(table);
  if (capacity == 0) return -std::numeric_limits<double>::infinity();
  if (rows.size(table) < capacity) return std::numeric_limits<double>::infinity();
  return rows.entry(rows.worst(table)).aged(now);
}

}  // namespace adc::cache
