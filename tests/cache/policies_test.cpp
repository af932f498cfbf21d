#include "cache/policies.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace adc::cache {
namespace {

std::optional<Policy> named(std::string_view name) {
  for (const auto& [known, policy] : policy_names()) {
    if (known == name) return policy;
  }
  return std::nullopt;
}

TEST(PolicyNames, ParseAndPrint) {
  EXPECT_EQ(named("lru"), Policy::kLru);
  EXPECT_EQ(named("fifo"), Policy::kFifo);
  EXPECT_EQ(named("lfu"), Policy::kLfu);
  EXPECT_FALSE(named("unknown").has_value());
  EXPECT_EQ(policy_name(Policy::kLru), "lru");
  EXPECT_EQ(policy_name(Policy::kFifo), "fifo");
  EXPECT_EQ(policy_name(Policy::kLfu), "lfu");
  EXPECT_EQ(policy_name(Policy::kGdsf), "gdsf");
  EXPECT_EQ(policy_name(Policy::kSizeLru), "size-lru");
  EXPECT_EQ(named("gdsf"), Policy::kGdsf);
  EXPECT_EQ(named("sizelru"), Policy::kSizeLru);
  EXPECT_EQ(named("size_lru"), Policy::kSizeLru);
}

// A cache of capacity 0 would hold every object it is given; the check
// holds in release builds too.
TEST(MakeCache, ZeroCapacityThrows) {
  for (const Policy policy :
       {Policy::kLru, Policy::kFifo, Policy::kLfu, Policy::kGdsf, Policy::kSizeLru}) {
    EXPECT_THROW(make_cache(0, policy), std::invalid_argument) << policy_name(policy);
    EXPECT_THROW(make_sized_cache(0, policy, 1000, nullptr), std::invalid_argument)
        << policy_name(policy);
  }
}

class CachePolicyTest : public ::testing::TestWithParam<Policy> {
 protected:
  std::unique_ptr<CacheSet> make(std::size_t capacity) {
    return make_cache(capacity, GetParam());
  }
};

TEST_P(CachePolicyTest, InsertAndContains) {
  auto cache = make(4);
  EXPECT_FALSE(cache->contains(1));
  cache->insert(1, 0);
  EXPECT_TRUE(cache->contains(1));
  EXPECT_EQ(cache->size(), 1u);
}

TEST_P(CachePolicyTest, CapacityIsBounded) {
  auto cache = make(3);
  for (ObjectId id = 1; id <= 10; ++id) {
    cache->insert(id, 0);
    ASSERT_LE(cache->size(), 3u);
  }
  EXPECT_EQ(cache->size(), 3u);
}

TEST_P(CachePolicyTest, EvictionReportsVictim) {
  auto cache = make(2);
  EXPECT_TRUE(cache->insert_evicting(1).empty());
  EXPECT_TRUE(cache->insert_evicting(2).empty());
  const auto victims = cache->insert_evicting(3);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_FALSE(cache->contains(victims[0]));
  EXPECT_TRUE(cache->contains(3));
}

TEST_P(CachePolicyTest, ReinsertingPresentIsNoEviction) {
  auto cache = make(2);
  cache->insert(1, 0);
  cache->insert(2, 0);
  EXPECT_TRUE(cache->insert_evicting(1).empty());
  EXPECT_EQ(cache->size(), 2u);
}

// Each object keeps the version it was stored with: a re-insert overwrites
// it, and an evicted, cleared or never-seen object reads 0.
TEST_P(CachePolicyTest, VersionFollowsInsertEvictionAndClear) {
  auto cache = make(2);
  EXPECT_EQ(cache->version(1), 0u);
  cache->insert(1, 7);
  cache->insert(2, 3);
  EXPECT_EQ(cache->version(1), 7u);
  EXPECT_EQ(cache->version(2), 3u);
  cache->insert(1, 9);
  EXPECT_EQ(cache->version(1), 9u);
  EXPECT_EQ(cache->size(), 2u);
  std::vector<ObjectId> evicted;
  cache->insert(5, 4, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(cache->version(evicted[0]), 0u);
  EXPECT_EQ(cache->version(5), 4u);
  cache->clear();
  EXPECT_EQ(cache->version(5), 0u);
}

TEST_P(CachePolicyTest, ClearEmpties) {
  auto cache = make(4);
  cache->insert(1, 0);
  cache->insert(2, 0);
  cache->clear();
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_FALSE(cache->contains(1));
}

TEST_P(CachePolicyTest, LookupCountsHitsAndMisses) {
  auto cache = make(4);
  cache->insert(1, 0);
  EXPECT_TRUE(cache->lookup(1));
  EXPECT_FALSE(cache->lookup(2));
  EXPECT_FALSE(cache->lookup(3));
  EXPECT_EQ(cache->hits, 1u);
}

TEST_P(CachePolicyTest, EvictionOrderListsAllEntries) {
  auto cache = make(4);
  for (ObjectId id = 1; id <= 4; ++id) cache->insert(id, 0);
  EXPECT_EQ(cache->eviction_order().size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CachePolicyTest,
                         ::testing::Values(Policy::kLru, Policy::kFifo, Policy::kLfu),
                         [](const auto& info) {
                           return std::string(policy_name(info.param));
                         });

TEST(LruCache, TouchProtectsEntry) {
  auto cache = make_cache(2, Policy::kLru);
  cache->insert(1, 0);
  cache->insert(2, 0);
  cache->touch(1);  // 1 becomes most recent; 2 is now the victim
  EXPECT_EQ(cache->insert_evicting(3), std::vector<ObjectId>{2});
  EXPECT_TRUE(cache->contains(1));
}

TEST(LruCache, EvictionOrderIsRecency) {
  auto cache = make_cache(3, Policy::kLru);
  cache->insert(1, 0);
  cache->insert(2, 0);
  cache->insert(3, 0);
  cache->touch(1);
  const auto order = cache->eviction_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // victim first
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 1u);
}

TEST(FifoCache, TouchDoesNotProtect) {
  auto cache = make_cache(2, Policy::kFifo);
  cache->insert(1, 0);
  cache->insert(2, 0);
  cache->touch(1);  // no effect under FIFO
  // The oldest insertion is evicted regardless.
  EXPECT_EQ(cache->insert_evicting(3), std::vector<ObjectId>{1});
}

TEST(LfuCache, FrequencyProtects) {
  auto cache = make_cache(2, Policy::kLfu);
  cache->insert(1, 0);
  cache->insert(2, 0);
  cache->touch(1);
  cache->touch(1);  // freq(1) = 3, freq(2) = 1
  EXPECT_EQ(cache->insert_evicting(3), std::vector<ObjectId>{2});
  EXPECT_TRUE(cache->contains(1));
}

TEST(LfuCache, TieBreaksTowardOlder) {
  auto cache = make_cache(2, Policy::kLfu);
  cache->insert(1, 0);
  cache->insert(2, 0);  // both freq 1; 1 is older
  EXPECT_EQ(cache->insert_evicting(3), std::vector<ObjectId>{1});
}

TEST(LfuCache, InsertOfPresentBumpsFrequency) {
  auto cache = make_cache(2, Policy::kLfu);
  cache->insert(1, 0);
  cache->insert(2, 0);
  cache->insert(1, 0);  // acts as touch: freq(1) = 2
  EXPECT_EQ(cache->insert_evicting(3), std::vector<ObjectId>{2});
}

}  // namespace
}  // namespace adc::cache
