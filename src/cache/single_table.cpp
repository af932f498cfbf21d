#include "cache/single_table.h"

#include <cassert>
#include <list>

#include "util/flat_index.h"

namespace adc::cache {
namespace {

/// Faithful variant: a linked list searched element by element.
class ListSingleTable final : public SingleTable {
 public:
  using SingleTable::SingleTable;

  std::size_t size() const noexcept override { return entries_.size(); }
  TableImpl impl() const noexcept override { return TableImpl::kFaithful; }

  const TableEntry* find(ObjectId object) const noexcept override {
    const auto it = locate(object);
    return it == entries_.cend() ? nullptr : &*it;
  }

  TableEntry* find_mutable(ObjectId object) noexcept override {
    const auto it = locate(object);
    return it == entries_.cend() ? nullptr : const_cast<TableEntry*>(&*it);
  }

  std::optional<TableEntry> remove(ObjectId object) override {
    const auto it = locate(object);
    if (it == entries_.cend()) return std::nullopt;
    TableEntry out = *it;
    entries_.erase(it);
    return out;
  }

  std::optional<TableEntry> remove_last() override {
    if (entries_.empty()) return std::nullopt;
    TableEntry out = entries_.back();
    entries_.pop_back();
    return out;
  }

  const TableEntry* top() const noexcept override {
    return entries_.empty() ? nullptr : &entries_.front();
  }

  const TableEntry* bottom() const noexcept override {
    return entries_.empty() ? nullptr : &entries_.back();
  }

  void clear() override { entries_.clear(); }

  std::vector<TableEntry> snapshot() const override {
    return std::vector<TableEntry>(entries_.begin(), entries_.end());
  }

 private:
  void push_front(const TableEntry& entry) override {
    assert(locate(entry.object) == entries_.cend() && "duplicate object in single-table");
    entries_.push_front(entry);
  }

  std::list<TableEntry>::const_iterator locate(ObjectId object) const noexcept {
    for (auto it = entries_.cbegin(); it != entries_.cend(); ++it) {
      if (it->object == object) return it;
    }
    return entries_.cend();
  }

  std::list<TableEntry> entries_;  // front = most recent
};

/// Indexed variant: the LRU list is threaded through a fixed array of rows
/// by 32-bit links; free rows form a second list through `next`.
class FlatSingleTable final : public SingleTable {
 public:
  explicit FlatSingleTable(std::size_t capacity)
      : SingleTable(capacity), rows_(capacity), index_(capacity) {
    clear();
  }

  std::size_t size() const noexcept override { return index_.size(); }
  TableImpl impl() const noexcept override { return TableImpl::kIndexed; }

  const TableEntry* find(ObjectId object) const noexcept override {
    const std::uint32_t row = index_.find(object);
    return row == kNil ? nullptr : &rows_[row].entry;
  }

  TableEntry* find_mutable(ObjectId object) noexcept override {
    const std::uint32_t row = index_.find(object);
    return row == kNil ? nullptr : &rows_[row].entry;
  }

  std::optional<TableEntry> remove(ObjectId object) override {
    const std::uint32_t row = index_.find(object);
    if (row == kNil) return std::nullopt;
    return release(row);
  }

  std::optional<TableEntry> remove_last() override {
    if (tail_ == kNil) return std::nullopt;
    return release(tail_);
  }

  const TableEntry* top() const noexcept override {
    return head_ == kNil ? nullptr : &rows_[head_].entry;
  }

  const TableEntry* bottom() const noexcept override {
    return tail_ == kNil ? nullptr : &rows_[tail_].entry;
  }

  void clear() override {
    index_.clear();
    head_ = tail_ = kNil;
    free_ = kNil;
    for (std::size_t i = rows_.size(); i-- > 0;) {
      rows_[i].next = free_;
      free_ = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<TableEntry> snapshot() const override {
    std::vector<TableEntry> out;
    out.reserve(size());
    for (std::uint32_t row = head_; row != kNil; row = rows_[row].next) {
      out.push_back(rows_[row].entry);
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kNil = util::FlatIndex::kNone;

  struct Row {
    TableEntry entry;
    std::uint32_t prev = kNil;  // toward the top
    std::uint32_t next = kNil;  // toward the bottom (or the next free row)
  };

  void push_front(const TableEntry& entry) override {
    assert(free_ != kNil && !index_.contains(entry.object));
    const std::uint32_t row = free_;
    Row& r = rows_[row];
    free_ = r.next;
    r.entry = entry;
    r.prev = kNil;
    r.next = head_;
    if (head_ != kNil) rows_[head_].prev = row;
    head_ = row;
    if (tail_ == kNil) tail_ = row;
    index_.assign(entry.object, row);
  }

  /// Unlinks a live row, returns it to the free list and hands back its
  /// entry.
  TableEntry release(std::uint32_t row) {
    Row& r = rows_[row];
    (r.prev == kNil ? head_ : rows_[r.prev].next) = r.next;
    (r.next == kNil ? tail_ : rows_[r.next].prev) = r.prev;
    index_.erase(r.entry.object);
    r.next = free_;
    free_ = row;
    return r.entry;
  }

  std::vector<Row> rows_;
  util::FlatIndex index_;
  std::uint32_t head_ = kNil;  // most recent
  std::uint32_t tail_ = kNil;  // least recent
  std::uint32_t free_ = kNil;
};

}  // namespace

std::unique_ptr<SingleTable> make_single_table(std::size_t capacity, TableImpl impl) {
  assert(capacity > 0);
  if (impl == TableImpl::kFaithful) return std::make_unique<ListSingleTable>(capacity);
  return std::make_unique<FlatSingleTable>(capacity);
}

}  // namespace adc::cache
