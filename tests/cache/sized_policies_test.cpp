// Size-aware cache tests: byte budgets, GDSF / size-LRU victim choice,
// and eviction_order determinism across identically-driven instances.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/policies.h"
#include "util/rng.h"

namespace adc::cache {
namespace {

/// Deterministic synthetic sizes: object id's low bits pick one of a few
/// size classes so tests can reason about exact byte totals.
std::uint64_t size_class(ObjectId object) {
  switch (object % 4) {
    case 0:
      return 100;
    case 1:
      return 10;
    case 2:
      return 50;
    default:
      return 25;
  }
}

class SizedPolicyTest : public ::testing::TestWithParam<Policy> {
 protected:
  std::unique_ptr<CacheSet> make(std::size_t capacity, std::uint64_t budget) {
    return make_sized_cache(capacity, GetParam(), budget, size_class);
  }
};

TEST_P(SizedPolicyTest, BytesTrackInsertsAndErases) {
  auto cache = make(2, 0);
  cache->insert(1, 0);  // 10
  cache->insert(2, 0);  // 50
  EXPECT_EQ(cache->bytes(), 60u);
  // A third object erases one resident by eviction.
  const auto evicted = cache->insert_evicting(3);  // 25
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(cache->bytes(), 60u - size_class(evicted[0]) + 25u);
  cache->clear();
  EXPECT_EQ(cache->bytes(), 0u);
}

TEST_P(SizedPolicyTest, ByteBudgetIsNeverExceeded) {
  auto cache = make(1000, 200);
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    cache->insert_evicting(static_cast<ObjectId>(rng.next() % 1000 + 1));
    ASSERT_LE(cache->bytes(), 200u);
  }
}

TEST_P(SizedPolicyTest, OversizedObjectIsRefusedNotAdmitted) {
  auto cache = make(100, 40);
  cache->insert(1, 0);  // 10, fits
  std::vector<ObjectId> evicted;
  cache->insert(4, 6, &evicted);  // 100 > budget 40
  EXPECT_FALSE(cache->contains(4));
  EXPECT_EQ(cache->version(4), 0u);  // a refused object keeps no version
  EXPECT_TRUE(evicted.empty());      // nothing sacrificed for a hopeless admit
  EXPECT_TRUE(cache->contains(1));
}

TEST_P(SizedPolicyTest, LargeAdmitMayEvictSeveral) {
  auto cache = make(100, 120);
  cache->insert(1, 0);  // 10
  cache->insert(3, 0);  // 25
  cache->insert(2, 0);  // 50
  ASSERT_EQ(cache->bytes(), 85u);
  // Admitting a 100-byte object forces out more than one resident.
  const auto evicted = cache->insert_evicting(4);
  EXPECT_TRUE(cache->contains(4));
  EXPECT_GE(evicted.size(), 2u);
  EXPECT_LE(cache->bytes(), 120u);
}

TEST_P(SizedPolicyTest, EvictionOrderIsDeterministicAcrossInstances) {
  // Two identically-driven caches must agree on the exact victim order —
  // the property that keeps --workers N runs bit-identical.
  auto a = make(50, 400);
  auto b = make(50, 400);
  util::Rng rng(23);
  std::vector<ObjectId> ops;
  for (int i = 0; i < 400; ++i) ops.push_back(static_cast<ObjectId>(rng.next() % 80 + 1));
  for (const ObjectId object : ops) {
    a->lookup(object);
    const auto ea = a->insert_evicting(object);
    b->lookup(object);
    const auto eb = b->insert_evicting(object);
    ASSERT_EQ(ea, eb);
  }
  EXPECT_EQ(a->eviction_order(), b->eviction_order());
  EXPECT_EQ(a->bytes(), b->bytes());
}

TEST_P(SizedPolicyTest, EvictionOrderSnapshotMatchesActualVictims) {
  // Capacity exceeds size-LRU's cold-tail window, so the hot objects the
  // loop below inserts cannot perturb the predicted victim sequence.
  auto cache = make(16, 0);
  for (ObjectId object = 1; object <= 16; ++object) cache->insert(object, 0);
  const std::vector<ObjectId> predicted = cache->eviction_order();
  ASSERT_EQ(predicted.size(), 16u);
  // Insert fresh objects one by one; victims must come off in snapshot
  // order (the snapshot is taken victim-first).
  for (std::size_t i = 0; i < 4; ++i) {
    const auto evicted = cache->insert_evicting(static_cast<ObjectId>(100 + i));
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], predicted[i]) << "victim " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SizedPolicyTest,
                         ::testing::Values(Policy::kLru, Policy::kFifo, Policy::kLfu,
                                           Policy::kGdsf, Policy::kSizeLru),
                         [](const auto& info) {
                           return std::string(policy_name(info.param)) == "size-lru"
                                      ? "SizeLru"
                                      : std::string(policy_name(info.param));
                         });

TEST(GdsfCache, PrefersEvictingLargeColdObjects) {
  // Two same-frequency objects: GDSF's H = L + freq/size makes the larger
  // one cheaper to evict.
  auto cache = make_sized_cache(2, Policy::kGdsf, 0, size_class);
  cache->insert(4, 0);  // 100 bytes
  cache->insert(1, 0);  // 10 bytes
  const auto evicted = cache->insert_evicting(5);  // third object forces a choice
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 4u);  // the big one goes first
}

TEST(GdsfCache, FrequencyStillProtectsSmallEnoughGap) {
  auto cache = make_sized_cache(2, Policy::kGdsf, 0, [](ObjectId) { return 10u; });
  cache->insert(1, 0);
  cache->insert(2, 0);
  for (int i = 0; i < 8; ++i) cache->touch(1);
  const auto evicted = cache->insert_evicting(3);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);  // equal sizes: plain frequency decides
}

TEST(SizeLruCache, EvictsLargestAmongTheColdTail) {
  auto cache = make_sized_cache(16, Policy::kSizeLru, 0, size_class);
  // Fill 16 objects; object 4 (100 bytes) sits in the cold tail.
  for (ObjectId object = 1; object <= 16; ++object) cache->insert(object, 0);
  const auto evicted = cache->insert_evicting(17);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(size_class(evicted[0]), 100u);  // a biggest-class victim
}

TEST(SizeLruCache, RecencyStillProtectsTheHotEnd) {
  auto cache = make_sized_cache(16, Policy::kSizeLru, 0, size_class);
  for (ObjectId object = 1; object <= 16; ++object) cache->insert(object, 0);
  // Touch the big cold objects back to the hot end; eviction must then
  // come from the (small) cold tail instead.
  cache->touch(4);
  cache->touch(8);
  cache->touch(12);
  cache->touch(16);
  const auto evicted = cache->insert_evicting(17);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_NE(size_class(evicted[0]), 100u);
}

}  // namespace
}  // namespace adc::cache
