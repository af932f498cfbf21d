// Classic cache replacement policies for the baseline proxies.
//
// The paper's hashing baseline caches with LRU; FIFO and LFU are provided
// so the baseline-comparison ablation can show how sensitive the hashing
// results are to the replacement policy.  The caches store object ids and
// the data version each was stored with (the simulation never
// materializes payloads; versions feed the staleness accounting of
// sim/version.h).  When the payload store is enabled (src/store) a size
// function and per-proxy byte budget turn them into size-aware caches, and
// GDSF / size-aware LRU become available as additional policies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.h"

namespace adc::cache {

enum class Policy {
  kLru,
  kFifo,
  kLfu,
  /// GreedyDual-Size-Frequency: priority H = L + freq / size, evict the
  /// minimum-H object and inflate L to its priority (Cherkasova '98).
  /// Degenerates to LFU-with-aging under unit sizes.
  kGdsf,
  /// LRU ordering with a size-aware victim: among the coldest tail of the
  /// LRU list, evict the largest object first, repeating until the byte
  /// budget fits — big cold objects go before small ones.
  kSizeLru,
};

/// Every accepted policy name, lower case, aliases included; each policy's
/// first entry is its policy_name().  Also the CLIs' `--cache-policy` choices.
const std::vector<std::pair<std::string, Policy>>& policy_names();

std::string_view policy_name(Policy policy) noexcept;

/// Maps an object to its payload size in bytes (pure and stable for the
/// lifetime of the cache).
using SizeFn = std::function<std::uint64_t(ObjectId)>;

/// A bounded set of cached objects under some replacement policy.  Each
/// object keeps the data version it was stored with, so a proxy answers a
/// hit with that version and an eviction forgets it.
class CacheSet {
 public:
  explicit CacheSet(std::size_t capacity) : capacity_(capacity) {}
  virtual ~CacheSet() = default;

  CacheSet(const CacheSet&) = delete;
  CacheSet& operator=(const CacheSet&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }
  virtual std::size_t size() const noexcept = 0;

  virtual bool contains(ObjectId object) const noexcept = 0;

  /// The version the object was stored with; 0 when it is absent.
  virtual std::uint64_t version(ObjectId object) const noexcept = 0;

  /// Records a cache hit (LRU recency bump / LFU frequency bump).
  virtual void touch(ObjectId object) = 0;

  /// Inserts an object at `version`, evicting per policy, and appends
  /// *every* object evicted to admit it to `*evicted` when given (victim
  /// first).  Count-capacity caches evict at most one; byte-budgeted
  /// caches may evict several to make room for a large object (and may
  /// admit nothing when the object alone exceeds the budget — check
  /// contains()).  Inserting a present object touches it and overwrites
  /// its version.
  virtual void insert(ObjectId object, std::uint64_t version,
                      std::vector<ObjectId>* evicted = nullptr) = 0;

  /// Inserts an object at version 0, returning the evicted objects.
  std::vector<ObjectId> insert_evicting(ObjectId object) {
    std::vector<ObjectId> evicted;
    insert(object, 0, &evicted);
    return evicted;
  }

  virtual void clear() = 0;

  /// Eviction-order snapshot, victim first (tests).
  virtual std::vector<ObjectId> eviction_order() const = 0;

  /// Total bytes of the cached objects (a count-only cache charges one
  /// byte per object).
  virtual std::uint64_t bytes() const noexcept = 0;

  std::uint64_t hits = 0;

  /// Combined lookup + bookkeeping: true and touch on hit.
  bool lookup(ObjectId object) {
    if (contains(object)) {
      ++hits;
      touch(object);
      return true;
    }
    return false;
  }

 private:
  std::size_t capacity_;
};

/// Count-capacity cache: every object is charged one byte and no byte
/// budget applies, so kGdsf / kSizeLru degenerate to LFU-with-aging and
/// LRU respectively.  Throws std::invalid_argument for a capacity of 0.
std::unique_ptr<CacheSet> make_cache(std::size_t capacity, Policy policy);

/// Size-aware cache: enforces the count capacity *and*, when byte_budget
/// > 0, the byte budget (multi-evicting per policy until both hold).
/// Objects larger than the byte budget are never admitted.  `size_fn`
/// must be valid for the cache's lifetime.  Throws std::invalid_argument
/// for a capacity of 0, in every build.
std::unique_ptr<CacheSet> make_sized_cache(std::size_t capacity, Policy policy,
                                           std::uint64_t byte_budget, SizeFn size_fn);

}  // namespace adc::cache
