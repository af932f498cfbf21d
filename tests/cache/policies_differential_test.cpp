// Differential tests for the flat cache policies.  GDSF and LFU used to
// order entries in a std::map keyed by (priority, insertion seq), and the
// LRU family kept a std::list plus an unordered_map; the reference models
// below keep those versions so random insert/touch/clear sequences can
// check that the heap and slab caches evict exactly the same victims in
// exactly the same order.  The proxies used to keep each cached object's
// data version in a map beside the cache, forgetting it on eviction; the
// reference models keep versions that way, so every step also checks the
// version the cache itself stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/policies.h"
#include "util/rng.h"

namespace adc::cache {
namespace {

/// Interface of the reference models, mirroring CacheSet.  The policy
/// models hold ids only; the base keeps the versions beside them.
class RefCache {
 public:
  virtual ~RefCache() = default;
  virtual bool contains(ObjectId object) const = 0;
  virtual void touch(ObjectId object) = 0;
  virtual std::vector<ObjectId> insert_evicting(ObjectId object) = 0;
  virtual std::vector<ObjectId> eviction_order() const = 0;
  virtual std::uint64_t bytes() const = 0;
  virtual std::size_t size() const = 0;

  /// Admits the object (or touches it), forgets the victims' versions and
  /// records `version` when the object is held.
  std::vector<ObjectId> insert(ObjectId object, std::uint64_t version) {
    std::vector<ObjectId> evicted = insert_evicting(object);
    for (const ObjectId victim : evicted) versions_.erase(victim);
    if (contains(object)) versions_[object] = version;
    return evicted;
  }

  std::uint64_t version(ObjectId object) const {
    const auto it = versions_.find(object);
    return it == versions_.end() ? 0 : it->second;
  }

  void clear() {
    drop_all();
    versions_.clear();
  }

 private:
  virtual void drop_all() = 0;

  std::unordered_map<ObjectId, std::uint64_t> versions_;
};

/// The std::map GDSF / LFU cache.
class RefTreeCache final : public RefCache {
 public:
  RefTreeCache(std::size_t capacity, bool gdsf, std::uint64_t budget, SizeFn size_fn)
      : capacity_(capacity), gdsf_(gdsf), budget_(budget), size_fn_(std::move(size_fn)) {}

  bool contains(ObjectId object) const override { return index_.count(object) != 0; }

  void touch(ObjectId object) override {
    const auto it = index_.find(object);
    if (it == index_.end()) return;
    Meta meta = it->second;
    tree_.erase({meta.priority, meta.seq});
    ++meta.freq;
    meta.seq = next_seq_++;
    meta.priority = priority_of(meta.freq, meta.size);
    tree_.emplace(Key{meta.priority, meta.seq}, object);
    it->second = meta;
  }

  std::vector<ObjectId> insert_evicting(ObjectId object) override {
    if (contains(object)) {
      touch(object);
      return {};
    }
    const std::uint64_t sz = size_fn_ ? size_fn_(object) : 1;
    if (budget_ > 0 && sz > budget_) return {};
    std::vector<ObjectId> evicted;
    while (!tree_.empty() &&
           (index_.size() >= capacity_ || (budget_ > 0 && bytes_ + sz > budget_))) {
      evicted.push_back(evict_one());
    }
    Meta meta{priority_of(1, sz), next_seq_++, 1, sz};
    tree_.emplace(Key{meta.priority, meta.seq}, object);
    index_.emplace(object, meta);
    bytes_ += sz;
    return evicted;
  }

  std::vector<ObjectId> eviction_order() const override {
    std::vector<ObjectId> out;
    for (const auto& [key, object] : tree_) out.push_back(object);
    return out;
  }

  std::uint64_t bytes() const override { return bytes_; }
  std::size_t size() const override { return index_.size(); }

 private:
  void drop_all() override {
    tree_.clear();
    index_.clear();
    bytes_ = 0;
  }

  using Key = std::pair<double, std::uint64_t>;
  struct Meta {
    double priority;
    std::uint64_t seq;
    std::uint64_t freq;
    std::uint64_t size;
  };

  double priority_of(std::uint64_t freq, std::uint64_t size) const {
    if (!gdsf_) return static_cast<double>(freq);
    return inflation_ + static_cast<double>(freq) / static_cast<double>(size == 0 ? 1 : size);
  }

  ObjectId evict_one() {
    const auto victim = tree_.begin();
    const ObjectId object = victim->second;
    if (gdsf_) inflation_ = std::max(inflation_, victim->first.first);
    bytes_ -= index_.at(object).size;
    index_.erase(object);
    tree_.erase(victim);
    return object;
  }

  std::size_t capacity_;
  bool gdsf_;
  std::uint64_t budget_;
  SizeFn size_fn_;
  std::uint64_t bytes_ = 0;
  double inflation_ = 0.0;
  std::map<Key, ObjectId> tree_;
  std::unordered_map<ObjectId, Meta> index_;
  std::uint64_t next_seq_ = 0;
};

/// The std::list LRU / FIFO / size-aware-LRU cache.
class RefListCache final : public RefCache {
 public:
  RefListCache(std::size_t capacity, bool bump, bool size_aware, std::uint64_t budget,
               SizeFn size_fn)
      : capacity_(capacity),
        bump_(bump),
        size_aware_(size_aware),
        budget_(budget),
        size_fn_(std::move(size_fn)) {}

  bool contains(ObjectId object) const override { return index_.count(object) != 0; }

  void touch(ObjectId object) override {
    if (!bump_) return;
    const auto it = index_.find(object);
    if (it != index_.end()) order_.splice(order_.begin(), order_, it->second.where);
  }

  std::vector<ObjectId> insert_evicting(ObjectId object) override {
    if (contains(object)) {
      touch(object);
      return {};
    }
    const std::uint64_t sz = size_fn_ ? size_fn_(object) : 1;
    if (budget_ > 0 && sz > budget_) return {};
    std::vector<ObjectId> evicted;
    while (!order_.empty() &&
           (order_.size() >= capacity_ || (budget_ > 0 && bytes_ + sz > budget_))) {
      evicted.push_back(evict_one());
    }
    order_.push_front(object);
    index_.emplace(object, Entry{order_.begin(), sz});
    bytes_ += sz;
    return evicted;
  }

  std::vector<ObjectId> eviction_order() const override {
    RefListCache copy(capacity_, bump_, size_aware_, budget_, size_fn_);
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      copy.order_.push_front(*it);
      copy.index_.emplace(*it, Entry{copy.order_.begin(), index_.at(*it).size});
    }
    std::vector<ObjectId> out;
    while (!copy.order_.empty()) out.push_back(copy.evict_one());
    return out;
  }

  std::uint64_t bytes() const override { return bytes_; }
  std::size_t size() const override { return index_.size(); }

 private:
  static constexpr std::size_t kVictimScan = 8;

  void drop_all() override {
    order_.clear();
    index_.clear();
    bytes_ = 0;
  }

  ObjectId evict_one() {
    auto victim = std::prev(order_.end());
    if (size_aware_) {
      auto it = victim;
      for (std::size_t scanned = 1; scanned < kVictimScan && it != order_.begin(); ++scanned) {
        --it;
        if (index_.at(*it).size > index_.at(*victim).size) victim = it;
      }
    }
    const ObjectId object = *victim;
    bytes_ -= index_.at(object).size;
    index_.erase(object);
    order_.erase(victim);
    return object;
  }

  struct Entry {
    std::list<ObjectId>::iterator where;
    std::uint64_t size;
  };

  std::size_t capacity_;
  bool bump_;
  bool size_aware_;
  std::uint64_t budget_;
  SizeFn size_fn_;
  std::uint64_t bytes_ = 0;
  std::list<ObjectId> order_;
  std::unordered_map<ObjectId, Entry> index_;
};

std::unique_ptr<RefCache> make_reference(std::size_t capacity, Policy policy,
                                         std::uint64_t budget, SizeFn size_fn) {
  switch (policy) {
    case Policy::kGdsf:
      return std::make_unique<RefTreeCache>(capacity, true, budget, std::move(size_fn));
    case Policy::kLfu:
      return std::make_unique<RefTreeCache>(capacity, false, budget, std::move(size_fn));
    case Policy::kFifo:
      return std::make_unique<RefListCache>(capacity, false, false, budget, std::move(size_fn));
    case Policy::kSizeLru:
      return std::make_unique<RefListCache>(capacity, true, true, budget, std::move(size_fn));
    case Policy::kLru:
      break;
  }
  return std::make_unique<RefListCache>(capacity, true, false, budget, std::move(size_fn));
}

struct Case {
  Policy policy;
  bool sized;  // false: make_cache (count-only, unit sizes)
};

class PolicyDiffTest : public ::testing::TestWithParam<Case> {};

TEST_P(PolicyDiffTest, RandomSequencesEvictLikeTheNodeBasedCache) {
  const Case c = GetParam();
  // Sizes from a small set force GDSF priority ties (broken by seq).
  const SizeFn size_fn = [](ObjectId object) -> std::uint64_t {
    return 10u * (1u + static_cast<std::uint64_t>(object % 7));
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const std::size_t capacity = 8 + static_cast<std::size_t>(rng.next() % 40);
    const std::uint64_t budget = c.sized ? 150 + rng.next() % 400 : 0;
    std::unique_ptr<CacheSet> cache =
        c.sized ? make_sized_cache(capacity, c.policy, budget, size_fn)
                : make_cache(capacity, c.policy);
    std::unique_ptr<RefCache> ref =
        make_reference(capacity, c.policy, budget, c.sized ? size_fn : nullptr);
    std::vector<ObjectId> evicted;

    for (int step = 0; step < 5000; ++step) {
      const ObjectId object = rng.next() % 120;
      const std::uint64_t roll = rng.next() % 100;
      if (roll < 60) {
        // Few distinct versions, so a re-insert often keeps the same one.
        const std::uint64_t version = rng.next() % 4;
        evicted.clear();
        cache->insert(object, version, &evicted);
        ASSERT_EQ(evicted, ref->insert(object, version)) << "step " << step;
      } else if (roll < 99) {
        cache->touch(object);
        ref->touch(object);
      } else {
        cache->clear();
        ref->clear();
      }
      ASSERT_EQ(cache->contains(object), ref->contains(object)) << "step " << step;
      ASSERT_EQ(cache->version(object), ref->version(object)) << "step " << step;
      ASSERT_EQ(cache->size(), ref->size()) << "step " << step;
      ASSERT_EQ(cache->bytes(), ref->bytes()) << "step " << step;
      if (step % 250 == 0) {
        const std::vector<ObjectId> order = cache->eviction_order();
        ASSERT_EQ(order, ref->eviction_order()) << "step " << step;
        for (const ObjectId held : order) {
          ASSERT_EQ(cache->version(held), ref->version(held)) << "step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyDiffTest,
    ::testing::Values(Case{Policy::kGdsf, true}, Case{Policy::kLfu, true},
                      Case{Policy::kLru, true}, Case{Policy::kFifo, true},
                      Case{Policy::kSizeLru, true}, Case{Policy::kGdsf, false},
                      Case{Policy::kLfu, false}, Case{Policy::kLru, false},
                      Case{Policy::kFifo, false}, Case{Policy::kSizeLru, false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name(policy_name(info.param.policy));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (info.param.sized ? "_sized" : "_count");
    });

}  // namespace
}  // namespace adc::cache
