#include "cache/ordered_table.h"

#include <algorithm>
#include <cassert>

#include "util/flat_index.h"

namespace adc::cache {
namespace {

/// Faithful variant: sorted vector (ascending skew; ties by insertion
/// order, new equal keys placed after existing ones), linear object lookup.
class VectorOrderedTable final : public OrderedTable {
 public:
  explicit VectorOrderedTable(std::size_t capacity) : OrderedTable(capacity) {
    entries_.reserve(capacity);
  }

  std::size_t size() const noexcept override { return entries_.size(); }

  bool contains(ObjectId object) const noexcept override {
    return locate(object) != entries_.size();
  }

  const TableEntry* find(ObjectId object) const noexcept override {
    const std::size_t i = locate(object);
    return i == entries_.size() ? nullptr : &entries_[i];
  }

  TableEntry* find_mutable(ObjectId object) noexcept override {
    const std::size_t i = locate(object);
    return i == entries_.size() ? nullptr : &entries_[i];
  }

  std::optional<TableEntry> remove(ObjectId object) override {
    const std::size_t i = locate(object);
    if (i == entries_.size()) return std::nullopt;
    TableEntry out = entries_[i];
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }

  void insert(TableEntry entry) override {
    assert(!full());
    // Binary search for the first position with a strictly larger skew;
    // equal keys keep insertion order (new entry goes after).
    const auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry.skew(),
        [](SimTime skew, const TableEntry& e) { return skew < e.skew(); });
    entries_.insert(pos, entry);
  }

  std::optional<TableEntry> remove_worst() override {
    if (entries_.empty()) return std::nullopt;
    TableEntry out = entries_.back();
    entries_.pop_back();
    return out;
  }

  const TableEntry* worst() const noexcept override {
    return entries_.empty() ? nullptr : &entries_.back();
  }

  const TableEntry* best() const noexcept override {
    return entries_.empty() ? nullptr : &entries_.front();
  }

  void clear() override { entries_.clear(); }

  void for_each(const std::function<void(const TableEntry&)>& fn) const override {
    for (const TableEntry& e : entries_) fn(e);
  }

 private:
  std::size_t locate(ObjectId object) const noexcept {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].object == object) return i;
    }
    return entries_.size();
  }

  std::vector<TableEntry> entries_;  // ascending skew
};

/// Indexed variant: rows live in a fixed array, a binary max-heap of
/// {skew, insertion sequence, row} keys keeps the worst entry on top, and a
/// flat hash index maps object ids to rows.  The sequence number makes the
/// key a total order that ranks equal skews exactly as the faithful table
/// does (later insert = worse), so both variants evict the same entries.
class HeapOrderedTable final : public OrderedTable {
 public:
  explicit HeapOrderedTable(std::size_t capacity)
      : OrderedTable(capacity), rows_(capacity), index_(capacity) {
    heap_.reserve(capacity);
    free_.reserve(capacity);
    clear();
  }

  std::size_t size() const noexcept override { return heap_.size(); }

  bool contains(ObjectId object) const noexcept override { return index_.contains(object); }

  const TableEntry* find(ObjectId object) const noexcept override {
    const std::uint32_t row = index_.find(object);
    return row == util::FlatIndex::kNone ? nullptr : &rows_[row].entry;
  }

  TableEntry* find_mutable(ObjectId object) noexcept override {
    const std::uint32_t row = index_.find(object);
    return row == util::FlatIndex::kNone ? nullptr : &rows_[row].entry;
  }

  std::optional<TableEntry> remove(ObjectId object) override {
    const std::uint32_t row = index_.find(object);
    if (row == util::FlatIndex::kNone) return std::nullopt;
    return release(row);
  }

  void insert(TableEntry entry) override {
    assert(!full());
    assert(!contains(entry.object));
    const std::uint32_t row = free_.back();
    free_.pop_back();
    rows_[row].entry = entry;
    index_.assign(entry.object, row);
    heap_.push_back(Key{entry.skew(), next_seq_++, row});
    sift_up(heap_.size() - 1);
  }

  std::optional<TableEntry> remove_worst() override {
    if (heap_.empty()) return std::nullopt;
    return release(heap_.front().row);
  }

  const TableEntry* worst() const noexcept override {
    return heap_.empty() ? nullptr : &rows_[heap_.front().row].entry;
  }

  /// O(n): only tests and diagnostics ask for the best entry, and the
  /// minimum of a max-heap is one of its leaves.
  const TableEntry* best() const noexcept override {
    if (heap_.empty()) return nullptr;
    const auto leaves = heap_.begin() + static_cast<std::ptrdiff_t>(heap_.size() / 2);
    return &rows_[std::min_element(leaves, heap_.end(), before)->row].entry;
  }

  void clear() override {
    heap_.clear();
    index_.clear();
    free_.clear();
    for (std::size_t row = rows_.size(); row-- > 0;) {
      free_.push_back(static_cast<std::uint32_t>(row));
    }
    next_seq_ = 0;
  }

  /// O(n log n): sorts a copy of the keys.  Anti-entropy rounds and result
  /// snapshots iterate; the per-request path never does.
  void for_each(const std::function<void(const TableEntry&)>& fn) const override {
    std::vector<Key> order(heap_);
    std::sort(order.begin(), order.end(), before);
    for (const Key& key : order) fn(rows_[key.row].entry);
  }

 private:
  struct Key {
    SimTime skew;
    std::uint64_t seq;
    std::uint32_t row;
  };
  struct Row {
    TableEntry entry;
    std::size_t pos = 0;  // this row's position in heap_
  };

  static bool before(const Key& a, const Key& b) noexcept {
    return a.skew != b.skew ? a.skew < b.skew : a.seq < b.seq;
  }

  void place(std::size_t pos, const Key& key) noexcept {
    heap_[pos] = key;
    rows_[key.row].pos = pos;
  }

  void sift_up(std::size_t pos) noexcept {
    const Key key = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!before(heap_[parent], key)) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, key);
  }

  void sift_down(std::size_t pos) noexcept {
    const Key key = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child], heap_[child + 1])) ++child;
      if (!before(key, heap_[child])) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, key);
  }

  /// Unlinks a live row from the heap and the index, frees it and hands
  /// back its entry.
  TableEntry release(std::uint32_t row) {
    const TableEntry out = rows_[row].entry;
    const std::size_t pos = rows_[row].pos;
    index_.erase(out.object);
    free_.push_back(row);
    const Key last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      place(pos, last);
      if (pos > 0 && before(heap_[(pos - 1) / 2], last)) {
        sift_up(pos);
      } else {
        sift_down(pos);
      }
    }
    return out;
  }

  std::vector<Row> rows_;
  std::vector<Key> heap_;  // max-heap: heap_[0] is the worst entry
  std::vector<std::uint32_t> free_;
  util::FlatIndex index_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace

std::unique_ptr<OrderedTable> make_ordered_table(std::size_t capacity, TableImpl impl) {
  assert(capacity > 0);
  if (impl == TableImpl::kFaithful) return std::make_unique<VectorOrderedTable>(capacity);
  return std::make_unique<HeapOrderedTable>(capacity);
}

}  // namespace adc::cache
