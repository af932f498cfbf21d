#include "cache/policies.h"

#include <algorithm>
#include <stdexcept>

#include "util/indexed_heap.h"
#include "util/keyed_list.h"

namespace adc::cache {
namespace {

/// LRU / FIFO / size-aware-LRU with byte accounting.  Rows live in a
/// util::KeyedList in recency order (front = most recently used or
/// inserted; FIFO ignores touches).  Inserting multi-evicts until both the
/// count capacity and the byte budget hold; the size-aware variant picks
/// the *largest* object among the coldest kVictimScan entries instead of
/// the strict LRU tail.
class ListCache final : public CacheSet {
 public:
  ListCache(std::size_t capacity, bool bump_on_touch, bool size_aware_victim,
            std::uint64_t byte_budget, SizeFn size_fn)
      : CacheSet(capacity),
        bump_on_touch_(bump_on_touch),
        size_aware_victim_(size_aware_victim),
        budget_(byte_budget),
        size_fn_(std::move(size_fn)) {}

  std::size_t size() const noexcept override { return rows_.size(); }
  std::uint64_t bytes() const noexcept override { return bytes_; }

  bool contains(ObjectId object) const noexcept override { return rows_.contains(object); }

  std::uint64_t version(ObjectId object) const noexcept override {
    const Slot slot = rows_.find(object);
    return slot == Rows::kNil ? 0 : rows_[slot].version;
  }

  void touch(ObjectId object) override {
    const Slot slot = rows_.find(object);
    if (slot != Rows::kNil) bump(slot);
  }

  void insert(ObjectId object, std::uint64_t version,
              std::vector<ObjectId>* evicted) override {
    if (const Slot slot = rows_.find(object); slot != Rows::kNil) {
      bump(slot);
      rows_[slot].version = version;
      return;
    }
    const std::uint64_t sz = size_fn_ ? size_fn_(object) : 1;
    if (budget_ > 0 && sz > budget_) return;  // can never fit
    while (!rows_.empty() &&
           (size() >= capacity() || (budget_ > 0 && bytes_ + sz > budget_))) {
      const ObjectId victim_id = evict(victim(rows_));
      if (evicted != nullptr) evicted->push_back(victim_id);
    }
    rows_.push_front(Entry{object, sz, version});
    bytes_ += sz;
  }

  void clear() override {
    rows_.clear();
    bytes_ = 0;
  }

  std::vector<ObjectId> eviction_order() const override {
    // Replay the victim choice over a scratch copy so the snapshot
    // predicts exactly what successive evictions would pick.
    std::vector<ObjectId> out;
    out.reserve(rows_.size());
    Rows rest = rows_;
    while (!rest.empty()) {
      const Slot slot = victim(rest);
      out.push_back(rest[slot].object);
      rest.erase(slot);
    }
    return out;
  }

 private:
  struct Entry {
    ObjectId object;
    std::uint64_t size;
    std::uint64_t version;
    std::uint64_t key() const noexcept { return object; }
  };
  using Rows = util::KeyedList<Entry>;
  using Slot = Rows::Slot;

  /// Size-aware victim scan depth: bounds the cost of each eviction while
  /// still letting large cold objects jump the strict LRU queue.
  static constexpr std::size_t kVictimScan = 8;

  Slot victim(const Rows& rows) const {
    Slot victim = rows.back();
    if (size_aware_victim_) {
      Slot slot = victim;
      for (std::size_t scanned = 1; scanned < kVictimScan; ++scanned) {
        slot = rows.prev(slot);
        if (slot == Rows::kNil) break;
        // Strictly greater: on ties the colder (closer-to-tail) entry wins.
        if (rows[slot].size > rows[victim].size) victim = slot;
      }
    }
    return victim;
  }

  /// A hit: the row moves to the front unless the policy is FIFO.
  void bump(Slot slot) {
    if (bump_on_touch_) rows_.move_to_front(slot);
  }

  ObjectId evict(Slot slot) {
    const Entry entry = rows_.erase(slot);
    bytes_ -= entry.size;
    return entry.object;
  }

  bool bump_on_touch_;
  bool size_aware_victim_;
  std::uint64_t budget_;
  SizeFn size_fn_;
  std::uint64_t bytes_ = 0;
  Rows rows_;
};

/// GDSF and LFU share one layout; they differ only in the priority
/// function (GDSF: L + freq / size with L inflation; LFU: plain
/// frequency).  Rows live in a util::KeyedList (its order is unused) and a
/// binary min-heap of (priority, insertion seq) picks the victim; each row
/// keeps its key's heap position (util/indexed_heap.h).  The seq
/// makes every key unique, so the minimum — and therefore the whole
/// eviction order — is fully deterministic.
class HeapCache final : public CacheSet {
 public:
  HeapCache(std::size_t capacity, bool gdsf, std::uint64_t byte_budget, SizeFn size_fn)
      : CacheSet(capacity), gdsf_(gdsf), budget_(byte_budget), size_fn_(std::move(size_fn)) {}

  std::size_t size() const noexcept override { return rows_.size(); }
  std::uint64_t bytes() const noexcept override { return bytes_; }

  bool contains(ObjectId object) const noexcept override { return rows_.contains(object); }

  std::uint64_t version(ObjectId object) const noexcept override {
    const Slot slot = rows_.find(object);
    return slot == Rows::kNil ? 0 : rows_[slot].version;
  }

  void touch(ObjectId object) override {
    const Slot slot = rows_.find(object);
    if (slot != Rows::kNil) bump(slot);
  }

  void insert(ObjectId object, std::uint64_t version,
              std::vector<ObjectId>* evicted) override {
    if (const Slot slot = rows_.find(object); slot != Rows::kNil) {
      bump(slot);
      rows_[slot].version = version;
      return;
    }
    const std::uint64_t sz = size_fn_ ? size_fn_(object) : 1;
    if (budget_ > 0 && sz > budget_) return;
    while (!heap_.empty() &&
           (size() >= capacity() || (budget_ > 0 && bytes_ + sz > budget_))) {
      const ObjectId victim = evict_min();
      if (evicted != nullptr) evicted->push_back(victim);
    }
    const Slot slot = rows_.push_back(Meta{object, 1, sz, version, 0});
    util::heap_push(heap_, Key{priority_of(1, sz), next_seq_++, slot}, less, Placed{rows_});
    bytes_ += sz;
  }

  void clear() override {
    rows_.clear();
    heap_.clear();
    bytes_ = 0;
    // L_ deliberately survives clear(): GDSF's clock only moves forward.
  }

  std::vector<ObjectId> eviction_order() const override {
    std::vector<Key> keys = heap_;
    std::sort(keys.begin(), keys.end(), less);
    std::vector<ObjectId> out;
    out.reserve(keys.size());
    for (const Key& key : keys) out.push_back(rows_[key.slot].object);
    return out;
  }

 private:
  struct Meta {
    ObjectId object;
    std::uint64_t freq;
    std::uint64_t size;
    std::uint64_t version;
    std::size_t heap_pos;
    std::uint64_t key() const noexcept { return object; }
  };
  using Rows = util::KeyedList<Meta>;
  using Slot = Rows::Slot;
  struct Key {
    double priority;
    std::uint64_t seq;  // insertion/touch order: breaks priority ties
    Slot slot;
  };

  static bool less(const Key& a, const Key& b) noexcept {
    return a.priority < b.priority || (a.priority == b.priority && a.seq < b.seq);
  }

  double priority_of(std::uint64_t freq, std::uint64_t size) const {
    if (!gdsf_) return static_cast<double>(freq);
    // GDSF with unit cost: H = L + freq * cost / size.
    return inflation_ + static_cast<double>(freq) / static_cast<double>(size == 0 ? 1 : size);
  }

  /// Records a moved key's heap position in its row.
  struct Placed {
    Rows& rows;
    void operator()(const Key& key, std::size_t pos) const noexcept {
      rows[key.slot].heap_pos = pos;
    }
  };

  /// A hit: one more use raises the row's priority and renews its seq.
  void bump(Slot slot) {
    Meta& meta = rows_[slot];
    ++meta.freq;
    Key& key = heap_[meta.heap_pos];
    key.priority = priority_of(meta.freq, meta.size);
    key.seq = next_seq_++;
    util::heap_sift(heap_, meta.heap_pos, less, Placed{rows_});
  }

  /// Drops the minimum key and its row.
  ObjectId evict_min() {
    const Key& victim = heap_.front();
    if (gdsf_) inflation_ = std::max(inflation_, victim.priority);
    const Meta meta = rows_.erase(victim.slot);
    bytes_ -= meta.size;
    util::heap_erase(heap_, 0, less, Placed{rows_});
    return meta.object;
  }

  bool gdsf_;
  std::uint64_t budget_;
  SizeFn size_fn_;
  std::uint64_t bytes_ = 0;
  double inflation_ = 0.0;  // GDSF's L
  Rows rows_;
  std::vector<Key> heap_;  // binary min-heap on (priority, seq)
  std::uint64_t next_seq_ = 0;
};

}  // namespace

const std::vector<std::pair<std::string, Policy>>& policy_names() {
  static const std::vector<std::pair<std::string, Policy>> names = {
      {"lru", Policy::kLru},          {"fifo", Policy::kFifo},
      {"lfu", Policy::kLfu},          {"gdsf", Policy::kGdsf},
      {"size-lru", Policy::kSizeLru}, {"sizelru", Policy::kSizeLru},
      {"size_lru", Policy::kSizeLru},
  };
  return names;
}

std::string_view policy_name(Policy policy) noexcept {
  for (const auto& [name, known] : policy_names()) {
    if (known == policy) return name;
  }
  return "lru";
}

std::unique_ptr<CacheSet> make_cache(std::size_t capacity, Policy policy) {
  return make_sized_cache(capacity, policy, /*byte_budget=*/0, /*size_fn=*/nullptr);
}

std::unique_ptr<CacheSet> make_sized_cache(std::size_t capacity, Policy policy,
                                           std::uint64_t byte_budget, SizeFn size_fn) {
  if (capacity == 0) throw std::invalid_argument("make_sized_cache: capacity must be at least 1");
  switch (policy) {
    case Policy::kLru:
      break;
    case Policy::kFifo:
      return std::make_unique<ListCache>(capacity, /*bump_on_touch=*/false,
                                         /*size_aware_victim=*/false, byte_budget,
                                         std::move(size_fn));
    case Policy::kSizeLru:
      return std::make_unique<ListCache>(capacity, /*bump_on_touch=*/true,
                                         /*size_aware_victim=*/true, byte_budget,
                                         std::move(size_fn));
    case Policy::kLfu:
      return std::make_unique<HeapCache>(capacity, /*gdsf=*/false, byte_budget,
                                         std::move(size_fn));
    case Policy::kGdsf:
      return std::make_unique<HeapCache>(capacity, /*gdsf=*/true, byte_budget,
                                         std::move(size_fn));
  }
  return std::make_unique<ListCache>(capacity, /*bump_on_touch=*/true,
                                     /*size_aware_victim=*/false, byte_budget,
                                     std::move(size_fn));
}

}  // namespace adc::cache
