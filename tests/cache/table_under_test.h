// The per-table operations the cache suites check, served by one table of
// a cache::TableStore: an ordered table is the store's multiple-table, a
// single-table its single-table, and the other tables stay empty.  Each
// call dispatches to the configured store, so every case runs against both
// the faithful and the indexed rows.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "cache/table_store.h"

namespace adc::cache {

class TableUnderTest {
 public:
  TableUnderTest(TableImpl impl, TableId table, const TableCapacities& capacities)
      : store_(impl, capacities), table_(table) {}

  std::size_t size() const {
    return store_.visit([this](const auto& rows) { return rows.size(table_); });
  }
  std::size_t capacity() const {
    return store_.visit([this](const auto& rows) { return rows.capacity(table_); });
  }
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity(); }

  const TableEntry* find(ObjectId object) const {
    return store_.visit([this, object](const auto& rows) -> const TableEntry* {
      const auto h = rows.locate(object);
      return h.found() && h.table == table_ ? &rows.entry(h) : nullptr;
    });
  }
  bool contains(ObjectId object) const { return find(object) != nullptr; }

  std::optional<TableEntry> remove(ObjectId object) {
    return store_.visit([this, object](auto& rows) -> std::optional<TableEntry> {
      const auto h = rows.locate(object);
      if (!h.found() || h.table != table_) return std::nullopt;
      const TableEntry out = rows.entry(h);
      rows.erase(h);
      return out;
    });
  }

  /// The ordered tables' worst entry, the single-table's bottom one.
  std::optional<TableEntry> remove_last() {
    return store_.visit([this](auto& rows) -> std::optional<TableEntry> {
      if (rows.size(table_) == 0) return std::nullopt;
      const auto h = last_of(rows);
      const TableEntry out = rows.entry(h);
      rows.erase(h);
      return out;
    });
  }
  const TableEntry* last() const {
    return store_.visit([this](const auto& rows) -> const TableEntry* {
      return rows.size(table_) == 0 ? nullptr : &rows.entry(last_of(rows));
    });
  }
  const TableEntry* first() const {
    const std::vector<TableEntry> order = snapshot();
    if (order.empty()) return nullptr;
    return find(order.front().object);
  }

  /// Requires !full() and an absent object.
  void insert(const TableEntry& entry) {
    store_.visit([this, &entry](auto& rows) { rows.insert(table_, entry); });
  }

  void clear() {
    store_.visit([](auto& rows) { rows.clear(); });
  }

  std::vector<TableEntry> snapshot() const {
    std::vector<TableEntry> out;
    store_.visit([this, &out](const auto& rows) {
      rows.for_each(table_, [&out](const TableEntry& e) { out.push_back(e); });
    });
    return out;
  }

 protected:
  TableStore store_;

 private:
  template <typename Rows>
  auto last_of(const Rows& rows) const {
    return table_ == TableId::kSingle ? rows.tail() : rows.worst(table_);
  }

  TableId table_;
};

/// An ordered table (multiple-table) of `capacity` rows.
class OrderedTable : public TableUnderTest {
 public:
  OrderedTable(std::size_t capacity, TableImpl impl)
      : TableUnderTest(impl, TableId::kMultiple, {1, capacity, 0}) {}

  std::optional<TableEntry> remove_worst() { return remove_last(); }
  const TableEntry* worst() const { return last(); }
  const TableEntry* best() const { return first(); }
  double worst_aged(SimTime now) const {
    return store_.visit(
        [now](const auto& rows) { return cache::worst_aged(rows, TableId::kMultiple, now); });
  }
};

/// A single-table of `capacity` rows.
class SingleTable : public TableUnderTest {
 public:
  SingleTable(std::size_t capacity, TableImpl impl)
      : TableUnderTest(impl, TableId::kSingle, {capacity, 0, 0}) {}

  /// Inserts on top; when full the bottom entry drops out and is returned.
  std::optional<TableEntry> insert_on_top(const TableEntry& entry) {
    std::optional<TableEntry> evicted;
    if (full()) evicted = remove_last();
    insert(entry);
    return evicted;
  }
  const TableEntry* top() const { return first(); }
  const TableEntry* bottom() const { return last(); }
};

inline std::unique_ptr<OrderedTable> make_ordered_table(std::size_t capacity, TableImpl impl) {
  return std::make_unique<OrderedTable>(capacity, impl);
}

inline std::unique_ptr<SingleTable> make_single_table(std::size_t capacity, TableImpl impl) {
  return std::make_unique<SingleTable>(capacity, impl);
}

}  // namespace adc::cache
