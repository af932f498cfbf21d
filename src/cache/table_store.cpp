#include "cache/table_store.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "util/indexed_heap.h"

namespace adc::cache {

// --- FaithfulRows ----------------------------------------------------------

FaithfulRows::FaithfulRows(const TableCapacities& capacities) : capacities_(capacities) {
  caching_.reserve(capacities.caching);
  multiple_.reserve(capacities.multiple);
}

FaithfulRows::Handle FaithfulRows::locate(ObjectId object) const noexcept {
  for (const TableId table : {TableId::kCaching, TableId::kMultiple}) {
    const std::vector<TableEntry>& rows = ordered(table);
    for (std::size_t pos = 0; pos < rows.size(); ++pos) {
      if (rows[pos].object == object) return {table, true, pos, {}};
    }
  }
  for (auto node = single_.cbegin(); node != single_.cend(); ++node) {
    if (node->object == object) return {TableId::kSingle, true, 0, node};
  }
  return {};
}

FaithfulRows::Handle FaithfulRows::worst(TableId table) const noexcept {
  assert(!ordered(table).empty());
  return {table, true, ordered(table).size() - 1, {}};
}

FaithfulRows::Handle FaithfulRows::tail() const noexcept {
  assert(!single_.empty());
  return {TableId::kSingle, true, 0, std::prev(single_.cend())};
}

FaithfulRows::Detached FaithfulRows::detach(const Handle& h) {
  if (h.table == TableId::kSingle) {
    Detached out{*h.node};
    single_.erase(h.node);
    return out;
  }
  std::vector<TableEntry>& rows = ordered(h.table);
  Detached out{rows[h.pos]};
  rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(h.pos));
  return out;
}

FaithfulRows::Handle FaithfulRows::attach(const Detached& d, TableId table) {
  assert(size(table) < capacity(table));
  if (table == TableId::kSingle) {
    single_.push_front(d.entry);
    return {table, true, 0, single_.cbegin()};
  }
  // Binary search for the first row with a strictly larger skew: equal keys
  // keep insertion order (the new entry goes after them).
  std::vector<TableEntry>& rows = ordered(table);
  const auto pos = std::upper_bound(
      rows.begin(), rows.end(), d.entry.skew(),
      [](SimTime skew, const TableEntry& e) { return skew < e.skew(); });
  const auto at = rows.insert(pos, d.entry);
  return {table, true, static_cast<std::size_t>(at - rows.begin()), {}};
}

void FaithfulRows::clear() noexcept {
  caching_.clear();
  multiple_.clear();
  single_.clear();
}

// --- IndexedRows -----------------------------------------------------------

IndexedRows::IndexedRows(const TableCapacities& capacities)
    : capacities_(capacities),
      rows_(capacities.single + capacities.multiple + capacities.caching),
      // Sized so the full slab stays under two thirds of the buckets and
      // below the index's growth threshold: it never rehashes.
      index_(rows_.size() - rows_.size() / 4) {
  assert(rows_.size() < kNoRow);
  caching_.reserve(capacities.caching);
  multiple_.reserve(capacities.multiple);
  clear();
}

IndexedRows::Handle IndexedRows::refresh(const Handle& h) noexcept {
  if (h.table == TableId::kSingle) {
    list_unlink(h.row);
    list_push_front(h.row);
    return h;
  }
  rows_[h.row].aux = next_seq();
  util::heap_sift(heap(h.table), low_link(h.row), worse(), placed(h.table));
  return h;
}

IndexedRows::Detached IndexedRows::detach(const Handle& h) noexcept {
  if (h.table == TableId::kSingle) {
    list_unlink(h.row);
  } else {
    util::heap_erase(heap(h.table), low_link(h.row), worse(), placed(h.table));
  }
  return {h.row};
}

IndexedRows::Handle IndexedRows::attach(const Detached& d, TableId table) noexcept {
  assert(size(table) < capacity(table));
  if (table == TableId::kSingle) {
    list_push_front(d.row);
  } else {
    rows_[d.row].aux = next_seq();
    util::heap_push(heap(table), d.row, worse(), placed(table));
  }
  return {table, d.row};
}

IndexedRows::Handle IndexedRows::insert(TableId table, const TableEntry& e) {
  assert(free_ != kNoRow && !index_.contains(e.object, KeyOf{this}));
  const std::uint32_t row = free_;
  free_ = rows_[row].aux;
  rows_[row].entry = e;
  index_.assign(e.object, row, KeyOf{this});
  return attach({row}, table);
}

void IndexedRows::erase(const Handle& h) noexcept {
  detach(h);
  index_.erase(rows_[h.row].entry.object, h.row);
  rows_[h.row].aux = free_;
  free_ = h.row;
}

void IndexedRows::clear() noexcept {
  index_.clear();
  caching_.clear();
  multiple_.clear();
  head_ = tail_ = kNoRow;
  single_size_ = 0;
  free_ = kNoRow;
  for (std::size_t row = rows_.size(); row-- > 0;) {
    rows_[row].aux = free_;
    free_ = static_cast<std::uint32_t>(row);
  }
  next_seq_ = 0;
}

void IndexedRows::compact_seqs() {
  std::uint32_t next = 0;
  for (const TableId table : {TableId::kCaching, TableId::kMultiple}) {
    const std::vector<std::uint32_t> order = sorted_rows(table);
    for (std::size_t i = 0; i < order.size(); ++i) {
      rows_[order[i]].aux = static_cast<std::uint32_t>(i);
    }
    next = std::max(next, static_cast<std::uint32_t>(order.size()));
  }
  next_seq_ = next;
}

void IndexedRows::list_push_front(std::uint32_t row) noexcept {
  set_link(row, TableId::kSingle, kNoRow);
  rows_[row].aux = head_;
  if (head_ != kNoRow) {
    set_link(head_, TableId::kSingle, row);
  } else {
    tail_ = row;
  }
  head_ = row;
  ++single_size_;
}

void IndexedRows::list_unlink(std::uint32_t row) noexcept {
  const std::uint32_t prev = low_link(row);
  const std::uint32_t next = rows_[row].aux;
  if (prev != kNoRow) {
    rows_[prev].aux = next;
  } else {
    head_ = next;
  }
  if (next != kNoRow) {
    set_link(next, TableId::kSingle, prev);
  } else {
    tail_ = prev;
  }
  --single_size_;
}

std::vector<std::uint32_t> IndexedRows::sorted_rows(TableId table) const {
  std::vector<std::uint32_t> order(heap(table));
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) { return before(a, b); });
  return order;
}

// --- TableStore ------------------------------------------------------------

namespace {

std::variant<IndexedRows, FaithfulRows> make_rows(TableImpl impl,
                                                  const TableCapacities& capacities) {
  if (impl == TableImpl::kFaithful) {
    return std::variant<IndexedRows, FaithfulRows>(std::in_place_type<FaithfulRows>, capacities);
  }
  return std::variant<IndexedRows, FaithfulRows>(std::in_place_type<IndexedRows>, capacities);
}

}  // namespace

TableStore::TableStore(TableImpl impl, const TableCapacities& capacities)
    : rows_(make_rows(impl, capacities)) {}

}  // namespace adc::cache
