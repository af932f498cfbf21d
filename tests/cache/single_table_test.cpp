#include "cache/single_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace adc::cache {
namespace {

class SingleTableTest : public ::testing::TestWithParam<TableImpl> {
 protected:
  std::unique_ptr<SingleTable> make(std::size_t capacity) {
    return make_single_table(capacity, GetParam());
  }
};

TEST_P(SingleTableTest, StartsEmpty) {
  auto table = make(4);
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(table->size(), 0u);
  EXPECT_FALSE(table->full());
  EXPECT_EQ(table->capacity(), 4u);
  EXPECT_EQ(table->top(), nullptr);
  EXPECT_EQ(table->bottom(), nullptr);
}

TEST_P(SingleTableTest, InsertOnTopIsMostRecent) {
  auto table = make(4);
  table->insert_on_top(make_entry(1, 0, 10));
  table->insert_on_top(make_entry(2, 0, 11));
  ASSERT_NE(table->top(), nullptr);
  EXPECT_EQ(table->top()->object, 2u);
  EXPECT_EQ(table->bottom()->object, 1u);
}

TEST_P(SingleTableTest, FindDoesNotReorder) {
  auto table = make(4);
  table->insert_on_top(make_entry(1, 0, 10));
  table->insert_on_top(make_entry(2, 0, 11));
  ASSERT_NE(table->find(1), nullptr);
  EXPECT_EQ(table->top()->object, 2u);  // unchanged: no LRU bump on read
}

TEST_P(SingleTableTest, OverflowDropsBottom) {
  auto table = make(3);
  for (ObjectId id = 1; id <= 3; ++id) table->insert_on_top(make_entry(id, 0, 0));
  const auto evicted = table->insert_on_top(make_entry(4, 0, 0));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->object, 1u);
  EXPECT_EQ(table->size(), 3u);
  EXPECT_FALSE(table->contains(1));
  EXPECT_TRUE(table->contains(4));
}

TEST_P(SingleTableTest, NoEvictionWhileSpace) {
  auto table = make(3);
  EXPECT_FALSE(table->insert_on_top(make_entry(1, 0, 0)).has_value());
  EXPECT_FALSE(table->insert_on_top(make_entry(2, 0, 0)).has_value());
}

TEST_P(SingleTableTest, RemoveReturnsEntry) {
  auto table = make(4);
  auto entry = make_entry(7, 3, 42);
  entry.average = 99;
  table->insert_on_top(entry);
  const auto removed = table->remove(7);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->object, 7u);
  EXPECT_EQ(removed->location, 3);
  EXPECT_EQ(removed->average, 99);
  EXPECT_FALSE(table->contains(7));
  EXPECT_TRUE(table->empty());
}

TEST_P(SingleTableTest, RemoveMissingIsNullopt) {
  auto table = make(4);
  table->insert_on_top(make_entry(1, 0, 0));
  EXPECT_FALSE(table->remove(99).has_value());
  EXPECT_EQ(table->size(), 1u);
}

TEST_P(SingleTableTest, RemoveMiddlePreservesOrder) {
  auto table = make(4);
  for (ObjectId id = 1; id <= 4; ++id) table->insert_on_top(make_entry(id, 0, 0));
  table->remove(3);
  const auto snapshot = table->snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].object, 4u);
  EXPECT_EQ(snapshot[1].object, 2u);
  EXPECT_EQ(snapshot[2].object, 1u);
}

TEST_P(SingleTableTest, RemoveLastIsLruVictim) {
  auto table = make(4);
  for (ObjectId id = 1; id <= 3; ++id) table->insert_on_top(make_entry(id, 0, 0));
  const auto last = table->remove_last();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->object, 1u);
}

TEST_P(SingleTableTest, RemoveLastOnEmpty) {
  auto table = make(2);
  EXPECT_FALSE(table->remove_last().has_value());
}

TEST_P(SingleTableTest, ReinsertionMovesToTop) {
  // The ADC update path removes an entry and re-inserts it on top — the
  // LRU bump.
  auto table = make(3);
  for (ObjectId id = 1; id <= 3; ++id) table->insert_on_top(make_entry(id, 0, 0));
  auto entry = table->remove(1);
  ASSERT_TRUE(entry.has_value());
  table->insert_on_top(*entry);
  EXPECT_EQ(table->top()->object, 1u);
  // Next eviction victim is now object 2.
  const auto evicted = table->insert_on_top(make_entry(9, 0, 0));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->object, 2u);
}

TEST_P(SingleTableTest, CapacityOne) {
  auto table = make(1);
  table->insert_on_top(make_entry(1, 0, 0));
  const auto evicted = table->insert_on_top(make_entry(2, 0, 0));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->object, 1u);
  EXPECT_EQ(table->size(), 1u);
  EXPECT_EQ(table->top()->object, 2u);
  EXPECT_EQ(table->bottom()->object, 2u);
}

TEST_P(SingleTableTest, ClearEmpties) {
  auto table = make(4);
  for (ObjectId id = 1; id <= 4; ++id) table->insert_on_top(make_entry(id, 0, 0));
  table->clear();
  EXPECT_TRUE(table->empty());
  EXPECT_FALSE(table->contains(1));
  table->insert_on_top(make_entry(5, 0, 0));
  EXPECT_EQ(table->size(), 1u);
}

TEST_P(SingleTableTest, SizeNeverExceedsCapacityUnderChurn) {
  auto table = make(16);
  for (ObjectId id = 1; id <= 1000; ++id) {
    if (auto existing = table->remove(id % 40)) {
      table->insert_on_top(*existing);
    } else {
      table->insert_on_top(make_entry(id % 40 + 1000, 0, static_cast<SimTime>(id)));
    }
    ASSERT_LE(table->size(), 16u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothImpls, SingleTableTest,
                         ::testing::Values(TableImpl::kFaithful, TableImpl::kIndexed),
                         [](const auto& info) {
                           return info.param == TableImpl::kFaithful ? "Faithful" : "Indexed";
                         });

TEST(SingleTableEquivalence, FaithfulAndIndexedAgreeUnderRandomOps) {
  auto faithful = make_single_table(8, TableImpl::kFaithful);
  auto indexed = make_single_table(8, TableImpl::kIndexed);
  std::uint64_t state = 123;
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t r = adc::util::splitmix64(state);
    const ObjectId object = r % 24;
    if ((r >> 8) % 3 == 0) {
      const auto a = faithful->remove(object);
      const auto b = indexed->remove(object);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_EQ(a->object, b->object);
        ASSERT_EQ(a->last, b->last);
      }
    } else if (!faithful->contains(object)) {
      const auto a = faithful->insert_on_top(make_entry(object, 0, step));
      const auto b = indexed->insert_on_top(make_entry(object, 0, step));
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_EQ(a->object, b->object);
      }
    }
    const auto sa = faithful->snapshot();
    const auto sb = indexed->snapshot();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i].object, sb[i].object);
  }
}

}  // namespace
}  // namespace adc::cache
