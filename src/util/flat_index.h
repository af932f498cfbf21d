// Open-addressing hash tables over 64-bit keys: FlatIndex maps a key to
// a 32-bit slot in its owner's rows, FlatSet holds bare keys.
//
// The simulator's hot structures (the indexed ADC mapping tables, the
// chunk directories and other util::KeyedList rows, the proxies'
// pending-backwarding records) keep their rows in flat arrays and need
// only "which row holds key K".  std::unordered_map answers that with one
// heap node per key and a pointer chase per probe; these tables keep one
// power-of-two bucket array instead: linear probing resolves collisions,
// and erase shifts the following run back (no tombstones), so lookups stay
// short under any insert/erase churn.
//
// Where each key lives.  A FlatIndex bucket is 8 bytes: a 32-bit tag and
// the 32-bit slot.  The key itself is stored once, in the owner's row at
// that slot, and every lookup passes a `key_of(slot)` callable that reads
// it from there.  A probe compares tags first and reads a row only when
// the tags match; a row whose key differs (two keys can share a tag) is
// passed over like any other bucket, so answers are exact.  A FlatSet has
// no rows: its bucket is the 8-byte key, and the key UINT64_MAX marks an
// empty bucket, so a set cannot hold it.
//
// Where each key lands.  Fibonacci hashing picks the home bucket.  In an
// array of at least kBlockLocalBuckets buckets (256 KiB, too big to stay
// in a core's nearest caches) the home is block-local instead: the hash of
// key >> 3 picks a block of 8 adjacent buckets and key & 7 the bucket
// inside it.  Object and request ids are dense and come in order, so the
// ids a run has just introduced share a few cache lines instead of each
// missing to memory.  A smaller array stays cached anyway, and there
// whole-key hashing keeps dense keys apart, so probe runs stay short.
// The tag is the top 32 bits of that hash, its low 3 bits replaced by
// key & 7 in the block-local layout, so the home is a shift (and a mask)
// of the tag: growth and backward-shift erase move buckets without reading
// a row.  Only the one growth that crosses kBlockLocalBuckets changes the
// tags, and it reads each key once to recompute them.  Nothing iterates
// the buckets, so no result depends on where a key lands.
//
// Sizing.  A table sized for its final population up front runs at most
// half full and never allocates again; one that grows doubles its bucket
// array whenever the load would exceed three quarters, so a large growing
// index (an erasure tier's chunk directory holds ~100k keys) stays between
// 3/8 and 3/4 full: 11-21 bytes per key where a one-half limit would spend
// 16-32.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace adc::util {

namespace flat_detail {

/// A FlatIndex bucket: the key's tag and the slot of the row holding it.
struct SlotBucket {
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr bool kHoldsKey = false;

  std::uint32_t tag = 0;
  std::uint32_t slot = kNone;  // kNone = empty bucket

  bool empty() const noexcept { return slot == kNone; }
};
static_assert(sizeof(SlotBucket) == 8, "an index bucket is a tag and a slot");

/// A FlatSet bucket: the key itself.
struct KeyBucket {
  static constexpr std::uint64_t kNoKey = UINT64_MAX;
  static constexpr bool kHoldsKey = true;

  std::uint64_t key = kNoKey;  // kNoKey = empty bucket

  bool empty() const noexcept { return key == kNoKey; }
};
static_assert(sizeof(KeyBucket) == 8, "a set bucket is a key");

/// The bucket array, its layout and the probing both tables share.
template <typename Bucket>
class Table {
 public:
  /// Bucket arrays from this size on home keys block-locally.
  static constexpr std::size_t kBlockLocalBuckets = std::size_t{1} << 15;

  /// Room for `expected` keys without growing (at most half full).
  explicit Table(std::size_t expected);

  std::size_t size() const noexcept { return size_; }

  /// `key`'s tag in the current layout.
  std::uint32_t tag(std::uint64_t key) const noexcept {
    constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
    if (!block_local_) return static_cast<std::uint32_t>((key * kFibonacci) >> 32);
    return (static_cast<std::uint32_t>(((key >> 3) * kFibonacci) >> 32) & ~7U) |
           static_cast<std::uint32_t>(key & 7);
  }

  /// The first bucket of `tag`'s probe run that is empty or for which
  /// `holds(bucket)` is true.
  template <typename Holds>
  std::size_t probe(std::uint32_t tag, Holds&& holds) const noexcept {
    for (std::size_t i = home(tag);; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.empty() || holds(b)) return i;
    }
  }

  Bucket& operator[](std::size_t i) noexcept { return buckets_[i]; }
  const Bucket& operator[](std::size_t i) const noexcept { return buckets_[i]; }

  /// Fills the empty bucket `i` that a probe returned.
  void fill(std::size_t i, const Bucket& b) noexcept {
    buckets_[i] = b;
    ++size_;
  }

  /// Doubles the bucket array when one more key would pass three quarters
  /// load, before the caller probes for it.  When the doubling switches
  /// the layout, `retag(bucket)` gives each bucket its new tag.
  template <typename Retag>
  void reserve_one(Retag&& retag) {
    if (4 * (size_ + 1) <= 3 * buckets_.size()) return;
    std::vector<Bucket> old(2 * buckets_.size());
    old.swap(buckets_);
    const bool was_block_local = block_local_;
    set_layout();
    for (Bucket b : old) {
      if (b.empty()) continue;
      if (block_local_ != was_block_local) retag(b);
      std::size_t i = home(tag_of(b));
      while (!buckets_[i].empty()) i = (i + 1) & mask_;
      buckets_[i] = b;
    }
  }

  /// Empties bucket `hole`, pulling every later member of its probe run
  /// whose home lies at or before the hole into it, so no lookup ever
  /// stops early (backward-shift deletion).
  void erase_at(std::size_t hole) noexcept;

  /// Empties every bucket; keeps the array.
  void clear() noexcept;

 private:
  /// The top bits of the tag; in a block-local array with the low 3 bits
  /// of the result taken from the tag's (key & 7).  The branch goes one
  /// way for the whole life of an array size, so a small array pays
  /// nothing for the large ones' layout.
  std::size_t home(std::uint32_t tag) const noexcept {
    if (!block_local_) return tag >> shift_;
    return ((tag >> shift_) & ~std::size_t{7}) | (tag & 7);
  }
  std::uint32_t tag_of(const Bucket& b) const noexcept {
    if constexpr (Bucket::kHoldsKey) {
      return tag(b.key);
    } else {
      return b.tag;
    }
  }
  /// Derives the mask, shift and layout from the bucket count.
  void set_layout() noexcept;

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  unsigned shift_ = 32;        // 32 - log2(buckets)
  bool block_local_ = false;   // at least kBlockLocalBuckets buckets
  std::size_t size_ = 0;
};

extern template class Table<SlotBucket>;
extern template class Table<KeyBucket>;

}  // namespace flat_detail

/// Key -> slot, the key read from the owner's row through `key_of(slot)`,
/// which must return the key of every slot the index holds.
class FlatIndex {
  using Bucket = flat_detail::SlotBucket;

 public:
  /// Marks "no slot": returned by find() for absent keys.
  static constexpr std::uint32_t kNone = Bucket::kNone;

  /// Bucket arrays from this size on home keys block-locally.
  static constexpr std::size_t kBlockLocalBuckets =
      flat_detail::Table<Bucket>::kBlockLocalBuckets;

  /// Reserves room for `expected` keys without growing (at most half full).
  explicit FlatIndex(std::size_t expected = 0) : table_(expected) {}

  std::size_t size() const noexcept { return table_.size(); }
  bool empty() const noexcept { return table_.size() == 0; }

  /// The slot stored for `key`, or kNone.
  template <typename KeyOf>
  std::uint32_t find(std::uint64_t key, const KeyOf& key_of) const noexcept {
    return table_[locate(key, table_.tag(key), key_of)].slot;
  }

  template <typename KeyOf>
  bool contains(std::uint64_t key, const KeyOf& key_of) const noexcept {
    return find(key, key_of) != kNone;
  }

  /// Stores `slot` (!= kNone) for `key`, replacing any previous slot.
  template <typename KeyOf>
  void assign(std::uint64_t key, std::uint32_t slot, const KeyOf& key_of) {
    assert(slot != kNone);
    table_.reserve_one([&](Bucket& b) { b.tag = table_.tag(key_of(b.slot)); });
    const std::uint32_t tag = table_.tag(key);
    const std::size_t i = locate(key, tag, key_of);
    if (table_[i].empty()) {
      table_.fill(i, Bucket{tag, slot});
    } else {
      table_[i].slot = slot;
    }
  }

  /// Removes `key`, whose slot is `slot`; requires find(key) == slot.
  /// Matches the slot, so it reads no row.
  void erase(std::uint64_t key, std::uint32_t slot) noexcept {
    const std::size_t i =
        table_.probe(table_.tag(key), [slot](const Bucket& b) { return b.slot == slot; });
    assert(!table_[i].empty());
    table_.erase_at(i);
  }

  /// Drops every key; keeps the bucket array.
  void clear() noexcept { table_.clear(); }

 private:
  template <typename KeyOf>
  std::size_t locate(std::uint64_t key, std::uint32_t tag, const KeyOf& key_of) const noexcept {
    return table_.probe(tag,
                        [&](const Bucket& b) { return b.tag == tag && key_of(b.slot) == key; });
  }

  flat_detail::Table<Bucket> table_;
};

/// A set of keys (any but UINT64_MAX), each stored in its bucket.
class FlatSet {
  using Bucket = flat_detail::KeyBucket;

 public:
  /// Reserves room for `expected` keys without growing (at most half full).
  explicit FlatSet(std::size_t expected = 0) : table_(expected) {}

  std::size_t size() const noexcept { return table_.size(); }

  bool contains(std::uint64_t key) const noexcept { return !table_[locate(key)].empty(); }

  /// Adds `key`; returns false when it was present.
  bool insert(std::uint64_t key) {
    assert(key != Bucket::kNoKey);
    table_.reserve_one([](Bucket&) {});
    const std::size_t i = locate(key);
    if (!table_[i].empty()) return false;
    table_.fill(i, Bucket{key});
    return true;
  }

  /// Removes `key`; returns false when it was absent.
  bool erase(std::uint64_t key) noexcept {
    const std::size_t i = locate(key);
    if (table_[i].empty()) return false;
    table_.erase_at(i);
    return true;
  }

 private:
  std::size_t locate(std::uint64_t key) const noexcept {
    return table_.probe(table_.tag(key), [key](const Bucket& b) { return b.key == key; });
  }

  flat_detail::Table<Bucket> table_;
};

}  // namespace adc::util
