#include "cache/policies.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string_view>

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
  cache->insert(1);
  EXPECT_TRUE(cache->contains(1));
  EXPECT_EQ(cache->size(), 1u);
}

TEST_P(CachePolicyTest, CapacityIsBounded) {
  auto cache = make(3);
  for (ObjectId id = 1; id <= 10; ++id) {
    cache->insert(id);
    ASSERT_LE(cache->size(), 3u);
  }
  EXPECT_EQ(cache->size(), 3u);
}

TEST_P(CachePolicyTest, EvictionReportsVictim) {
  auto cache = make(2);
  EXPECT_FALSE(cache->insert(1).has_value());
  EXPECT_FALSE(cache->insert(2).has_value());
  const auto victim = cache->insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_FALSE(cache->contains(*victim));
  EXPECT_TRUE(cache->contains(3));
}

TEST_P(CachePolicyTest, ReinsertingPresentIsNoEviction) {
  auto cache = make(2);
  cache->insert(1);
  cache->insert(2);
  EXPECT_FALSE(cache->insert(1).has_value());
  EXPECT_EQ(cache->size(), 2u);
}

TEST_P(CachePolicyTest, EraseRemoves) {
  auto cache = make(4);
  cache->insert(1);
  EXPECT_TRUE(cache->erase(1));
  EXPECT_FALSE(cache->contains(1));
  EXPECT_FALSE(cache->erase(1));
}

TEST_P(CachePolicyTest, ClearEmpties) {
  auto cache = make(4);
  cache->insert(1);
  cache->insert(2);
  cache->clear();
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_FALSE(cache->contains(1));
}

TEST_P(CachePolicyTest, LookupCountsHitsAndMisses) {
  auto cache = make(4);
  cache->insert(1);
  EXPECT_TRUE(cache->lookup(1));
  EXPECT_FALSE(cache->lookup(2));
  EXPECT_FALSE(cache->lookup(3));
  EXPECT_EQ(cache->hits, 1u);
  EXPECT_EQ(cache->misses, 2u);
}

TEST_P(CachePolicyTest, EvictionOrderListsAllEntries) {
  auto cache = make(4);
  for (ObjectId id = 1; id <= 4; ++id) cache->insert(id);
  EXPECT_EQ(cache->eviction_order().size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CachePolicyTest,
                         ::testing::Values(Policy::kLru, Policy::kFifo, Policy::kLfu),
                         [](const auto& info) {
                           return std::string(policy_name(info.param));
                         });

TEST(LruCache, TouchProtectsEntry) {
  auto cache = make_cache(2, Policy::kLru);
  cache->insert(1);
  cache->insert(2);
  cache->touch(1);  // 1 becomes most recent; 2 is now the victim
  const auto victim = cache->insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
  EXPECT_TRUE(cache->contains(1));
}

TEST(LruCache, EvictionOrderIsRecency) {
  auto cache = make_cache(3, Policy::kLru);
  cache->insert(1);
  cache->insert(2);
  cache->insert(3);
  cache->touch(1);
  const auto order = cache->eviction_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // victim first
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 1u);
}

TEST(FifoCache, TouchDoesNotProtect) {
  auto cache = make_cache(2, Policy::kFifo);
  cache->insert(1);
  cache->insert(2);
  cache->touch(1);  // no effect under FIFO
  const auto victim = cache->insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u);  // oldest insertion evicted regardless
}

TEST(LfuCache, FrequencyProtects) {
  auto cache = make_cache(2, Policy::kLfu);
  cache->insert(1);
  cache->insert(2);
  cache->touch(1);
  cache->touch(1);  // freq(1) = 3, freq(2) = 1
  const auto victim = cache->insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
  EXPECT_TRUE(cache->contains(1));
}

TEST(LfuCache, TieBreaksTowardOlder) {
  auto cache = make_cache(2, Policy::kLfu);
  cache->insert(1);
  cache->insert(2);  // both freq 1; 1 is older
  const auto victim = cache->insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u);
}

TEST(LfuCache, InsertOfPresentBumpsFrequency) {
  auto cache = make_cache(2, Policy::kLfu);
  cache->insert(1);
  cache->insert(2);
  cache->insert(1);  // acts as touch: freq(1) = 2
  const auto victim = cache->insert(3);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
}

}  // namespace
}  // namespace adc::cache
