#include "cache/single_table.h"

#include <cassert>
#include <list>

#include "util/keyed_list.h"

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

/// Indexed variant: the LRU order lives in a util::KeyedList reserved for
/// the full capacity, so rows never move and nothing allocates.
class FlatSingleTable final : public SingleTable {
 public:
  explicit FlatSingleTable(std::size_t capacity) : SingleTable(capacity), rows_(capacity) {}

  std::size_t size() const noexcept override { return rows_.size(); }
  TableImpl impl() const noexcept override { return TableImpl::kIndexed; }

  const TableEntry* find(ObjectId object) const noexcept override {
    const Slot row = rows_.find(object);
    return row == kNil ? nullptr : &rows_[row];
  }

  TableEntry* find_mutable(ObjectId object) noexcept override {
    const Slot row = rows_.find(object);
    return row == kNil ? nullptr : &rows_[row];
  }

  std::optional<TableEntry> remove(ObjectId object) override {
    const Slot row = rows_.find(object);
    if (row == kNil) return std::nullopt;
    return rows_.erase(row);
  }

  std::optional<TableEntry> remove_last() override {
    if (rows_.empty()) return std::nullopt;
    return rows_.erase(rows_.back());
  }

  const TableEntry* top() const noexcept override {
    return rows_.empty() ? nullptr : &rows_[rows_.front()];
  }

  const TableEntry* bottom() const noexcept override {
    return rows_.empty() ? nullptr : &rows_[rows_.back()];
  }

  void clear() override { rows_.clear(); }

  std::vector<TableEntry> snapshot() const override {
    std::vector<TableEntry> out;
    out.reserve(size());
    rows_.for_each([&out](const TableEntry& entry) { out.push_back(entry); });
    return out;
  }

 private:
  using Rows = util::KeyedList<TableEntry>;
  using Slot = Rows::Slot;
  static constexpr Slot kNil = Rows::kNil;

  void push_front(const TableEntry& entry) override {
    assert(!full() && !rows_.contains(entry.object));
    rows_.push_front(entry);
  }

  Rows rows_;  // front = most recent
};

}  // namespace

std::unique_ptr<SingleTable> make_single_table(std::size_t capacity, TableImpl impl) {
  assert(capacity > 0);
  if (impl == TableImpl::kFaithful) return std::make_unique<ListSingleTable>(capacity);
  return std::make_unique<FlatSingleTable>(capacity);
}

}  // namespace adc::cache
