// Open-addressing hash index from a 64-bit key to a 32-bit slot number.
//
// The simulator's hot structures (the indexed ADC mapping tables, the
// proxies' pending-backwarding records) keep their rows in flat arrays and
// need only "which row holds key K".  std::unordered_map answers that with
// one heap node per key and a pointer chase per probe; this index keeps
// {key, slot} pairs inline in one power-of-two bucket array instead:
// linear probing resolves collisions, and erase shifts the following run
// back (no tombstones), so lookups stay short under any insert/erase churn.
//
// Fibonacci hashing picks the home bucket.  In an array of at least
// kBlockLocalBuckets buckets (384 KiB, more than a core's L2 cache holds)
// the home is block-local instead: the hash of key >> 3 picks a block of
// 8 adjacent buckets and key & 7 the bucket inside it.  Object and request
// ids are dense and come in order, so the ids a run has just introduced
// share a few cache lines instead of each missing to memory.  A smaller
// array stays cached anyway, and there whole-key hashing keeps dense keys
// apart, so probe runs stay short.  Nothing iterates the buckets, so no
// result depends on where a key lands.  An index sized for its
// final population up front runs at most half full and never allocates
// again; one that grows doubles its bucket array whenever the load would
// exceed three quarters, so a large growing index (an erasure tier's chunk
// directory holds ~100k keys) stays between 3/8 and 3/4 full: 16-32 bytes
// per key where a one-half limit would spend 24-48.
//
// A bucket is 12 bytes: the 64-bit key is stored as two 32-bit words next
// to the 32-bit slot, so the bucket is 4-byte aligned and carries no
// padding (a {u64, u32} struct would be 16).  The key is read and written
// with memcpy, which compiles to one unaligned 8-byte move and is never a
// misaligned access in the language's sense.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace adc::util {

class FlatIndex {
 public:
  /// Marks "no slot": returned by find() for absent keys.
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Bucket arrays from this size on home keys block-locally.
  static constexpr std::size_t kBlockLocalBuckets = std::size_t{1} << 15;

  /// Reserves room for `expected` keys without growing (at most half full).
  explicit FlatIndex(std::size_t expected = 0);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// The slot stored for `key`, or kNone.
  std::uint32_t find(std::uint64_t key) const noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNone || b.key() == key) return b.slot;
    }
  }

  bool contains(std::uint64_t key) const noexcept { return find(key) != kNone; }

  /// Stores `slot` (!= kNone) for `key`, replacing any previous slot.
  void assign(std::uint64_t key, std::uint32_t slot);

  /// Removes `key`; returns false when it was absent.
  bool erase(std::uint64_t key) noexcept;

  /// Drops every key; keeps the bucket array.
  void clear() noexcept;

 private:
  struct Bucket {
    std::uint32_t key_words[2] = {0, 0};  // the key's bytes, 4-byte aligned
    std::uint32_t slot = kNone;           // kNone = empty bucket

    std::uint64_t key() const noexcept {
      std::uint64_t key = 0;
      std::memcpy(&key, key_words, sizeof(key));
      return key;
    }
    void set_key(std::uint64_t key) noexcept { std::memcpy(key_words, &key, sizeof(key)); }
  };
  static_assert(sizeof(Bucket) == 12, "a bucket is a key and a slot, unpadded");

  /// The top bits of a Fibonacci hash of the key; in a block-local array,
  /// of key >> 3 with the low 3 bits of the result replaced by key & 7.
  /// The branch goes one way for the whole life of an array size, so a
  /// small array pays nothing for the large ones' layout.
  std::size_t home(std::uint64_t key) const noexcept {
    constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
    if (!block_local_) return static_cast<std::size_t>((key * kFibonacci) >> shift_);
    return static_cast<std::size_t>(((((key >> 3) * kFibonacci) >> shift_) & ~7ULL) | (key & 7));
  }
  void rehash(std::size_t buckets);

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  bool block_local_ = false;  // at least kBlockLocalBuckets buckets
  std::size_t size_ = 0;
};

}  // namespace adc::util
