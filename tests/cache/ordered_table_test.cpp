#include "table_under_test.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace adc::cache {
namespace {

TableEntry entry_with(ObjectId object, SimTime average, SimTime last) {
  TableEntry e = make_entry(object, 0, last);
  e.average = average;
  return e;
}

class OrderedTableTest : public ::testing::TestWithParam<TableImpl> {
 protected:
  std::unique_ptr<OrderedTable> make(std::size_t capacity) {
    return make_ordered_table(capacity, GetParam());
  }
};

TEST_P(OrderedTableTest, StartsEmpty) {
  auto table = make(4);
  EXPECT_TRUE(table->empty());
  EXPECT_FALSE(table->full());
  EXPECT_EQ(table->size(), 0u);
  EXPECT_EQ(table->worst(), nullptr);
  EXPECT_EQ(table->best(), nullptr);
}

TEST_P(OrderedTableTest, KeepsAscendingAgedOrder) {
  auto table = make(8);
  table->insert(entry_with(1, 50, 0));
  table->insert(entry_with(2, 10, 0));
  table->insert(entry_with(3, 30, 0));
  const auto snapshot = table->snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].object, 2u);
  EXPECT_EQ(snapshot[1].object, 3u);
  EXPECT_EQ(snapshot[2].object, 1u);
  EXPECT_EQ(table->best()->object, 2u);
  EXPECT_EQ(table->worst()->object, 1u);
}

TEST_P(OrderedTableTest, OrderUsesSkewNotRawAverage) {
  auto table = make(8);
  // b has the larger raw average but was touched much more recently, so
  // its aged value is lower.
  table->insert(entry_with(1, 10, 0));    // skew 10
  table->insert(entry_with(2, 50, 100));  // skew -50
  EXPECT_EQ(table->best()->object, 2u);
  EXPECT_EQ(table->worst()->object, 1u);
}

TEST_P(OrderedTableTest, EqualSkewKeepsInsertionOrder) {
  auto table = make(8);
  table->insert(entry_with(1, 20, 0));
  table->insert(entry_with(2, 20, 0));
  table->insert(entry_with(3, 20, 0));
  const auto snapshot = table->snapshot();
  EXPECT_EQ(snapshot[0].object, 1u);
  EXPECT_EQ(snapshot[1].object, 2u);
  EXPECT_EQ(snapshot[2].object, 3u);
  EXPECT_EQ(table->worst()->object, 3u);
}

TEST_P(OrderedTableTest, FindAndContains) {
  auto table = make(4);
  table->insert(entry_with(5, 20, 3));
  EXPECT_TRUE(table->contains(5));
  EXPECT_FALSE(table->contains(6));
  ASSERT_NE(table->find(5), nullptr);
  EXPECT_EQ(table->find(5)->average, 20);
  EXPECT_EQ(table->find(6), nullptr);
}

TEST_P(OrderedTableTest, RemoveByObject) {
  auto table = make(4);
  table->insert(entry_with(1, 10, 0));
  table->insert(entry_with(2, 20, 0));
  const auto removed = table->remove(1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->object, 1u);
  EXPECT_EQ(table->size(), 1u);
  EXPECT_FALSE(table->remove(1).has_value());
}

TEST_P(OrderedTableTest, RemoveWorstTakesLargestAged) {
  auto table = make(4);
  table->insert(entry_with(1, 10, 0));
  table->insert(entry_with(2, 90, 0));
  table->insert(entry_with(3, 40, 0));
  const auto worst = table->remove_worst();
  ASSERT_TRUE(worst.has_value());
  EXPECT_EQ(worst->object, 2u);
  EXPECT_EQ(table->size(), 2u);
}

TEST_P(OrderedTableTest, RemoveWorstOnEmpty) {
  auto table = make(4);
  EXPECT_FALSE(table->remove_worst().has_value());
}

TEST_P(OrderedTableTest, WorstAgedInfiniteWhileNotFull) {
  auto table = make(2);
  EXPECT_TRUE(std::isinf(table->worst_aged(100)));
  table->insert(entry_with(1, 10, 0));
  EXPECT_TRUE(std::isinf(table->worst_aged(100)));
  table->insert(entry_with(2, 30, 0));
  // Full: worst aged = (30 + 100 - 0) / 2 = 65.
  EXPECT_DOUBLE_EQ(table->worst_aged(100), 65.0);
}

TEST_P(OrderedTableTest, ReinsertionAfterUpdateReorders) {
  auto table = make(4);
  table->insert(entry_with(1, 100, 0));
  table->insert(entry_with(2, 10, 0));
  ASSERT_EQ(table->worst()->object, 1u);
  // Object 1 becomes hot: remove, improve, reinsert.
  auto e = table->remove(1);
  ASSERT_TRUE(e.has_value());
  e->average = 1;
  e->last = 50;
  table->insert(*e);
  EXPECT_EQ(table->best()->object, 1u);
  EXPECT_EQ(table->worst()->object, 2u);
}

TEST_P(OrderedTableTest, ClearEmpties) {
  auto table = make(4);
  table->insert(entry_with(1, 1, 0));
  table->clear();
  EXPECT_TRUE(table->empty());
  EXPECT_FALSE(table->contains(1));
}

TEST_P(OrderedTableTest, CapacityOne) {
  auto table = make(1);
  table->insert(entry_with(1, 10, 0));
  EXPECT_TRUE(table->full());
  EXPECT_EQ(table->worst()->object, 1u);
  const auto removed = table->remove_worst();
  ASSERT_TRUE(removed.has_value());
  EXPECT_TRUE(table->empty());
}

INSTANTIATE_TEST_SUITE_P(BothImpls, OrderedTableTest,
                         ::testing::Values(TableImpl::kFaithful, TableImpl::kIndexed),
                         [](const auto& info) {
                           return info.param == TableImpl::kFaithful ? "Faithful" : "Indexed";
                         });

// Property: both implementations behave identically under a long random
// operation stream — the guarantee behind the ABL-DS ablation's
// "results_identical" check.
TEST(OrderedTableEquivalence, FaithfulAndIndexedAgreeUnderRandomOps) {
  auto faithful = make_ordered_table(16, TableImpl::kFaithful);
  auto indexed = make_ordered_table(16, TableImpl::kIndexed);
  util::Rng rng(2024);
  SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    ++now;
    const ObjectId object = rng.below(48);
    switch (rng.below(4)) {
      case 0: {  // insert (if absent and not full)
        if (!faithful->contains(object) && !faithful->full()) {
          auto e = entry_with(object, static_cast<SimTime>(rng.below(200)), now);
          faithful->insert(e);
          indexed->insert(e);
        }
        break;
      }
      case 1: {  // remove by id
        const auto a = faithful->remove(object);
        const auto b = indexed->remove(object);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          ASSERT_EQ(a->object, b->object);
        }
        break;
      }
      case 2: {  // remove worst
        const auto a = faithful->remove_worst();
        const auto b = indexed->remove_worst();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          ASSERT_EQ(a->object, b->object);
        }
        break;
      }
      case 3: {  // update cycle: remove + recalc + insert
        auto a = faithful->remove(object);
        auto b = indexed->remove(object);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          a->calc_average(now);
          b->calc_average(now);
          faithful->insert(*a);
          indexed->insert(*b);
        }
        break;
      }
    }
    ASSERT_EQ(faithful->size(), indexed->size());
    ASSERT_DOUBLE_EQ(faithful->worst_aged(now), indexed->worst_aged(now));
    const auto sa = faithful->snapshot();
    const auto sb = indexed->snapshot();
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i].object, sb[i].object) << "step " << step << " pos " << i;
    }
  }
}

// The indexed table keeps a heap several levels deep at this capacity, and
// the narrow skew range makes ties common: eviction order, best and worst
// must still match the faithful sorted array after every operation.
TEST(OrderedTableEquivalence, DeepHeapWithManyTiesMatchesFaithful) {
  auto faithful = make_ordered_table(300, TableImpl::kFaithful);
  auto indexed = make_ordered_table(300, TableImpl::kIndexed);
  util::Rng rng(99);
  for (int step = 0; step < 30000; ++step) {
    const ObjectId object = rng.below(400);
    const SimTime skew = static_cast<SimTime>(rng.below(8));
    if (const auto a = faithful->remove(object)) {
      const auto b = indexed->remove(object);
      ASSERT_TRUE(b.has_value());
      ASSERT_EQ(a->object, b->object);
      if (rng.below(2) == 0) {
        faithful->insert(entry_with(object, skew, 0));
        indexed->insert(entry_with(object, skew, 0));
      }
    } else {
      ASSERT_FALSE(indexed->contains(object));
      if (faithful->full()) {
        const auto wa = faithful->remove_worst();
        const auto wb = indexed->remove_worst();
        ASSERT_EQ(wa->object, wb->object) << "step " << step;
      }
      faithful->insert(entry_with(object, skew, 0));
      indexed->insert(entry_with(object, skew, 0));
    }
    ASSERT_EQ(faithful->size(), indexed->size());
    if (faithful->empty()) continue;
    ASSERT_EQ(faithful->worst()->object, indexed->worst()->object) << "step " << step;
    ASSERT_EQ(faithful->best()->object, indexed->best()->object) << "step " << step;
  }
  const auto sa = faithful->snapshot();
  const auto sb = indexed->snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i].object, sb[i].object);
  faithful->clear();
  indexed->clear();
  EXPECT_TRUE(indexed->empty());
  EXPECT_EQ(indexed->worst(), nullptr);
  EXPECT_EQ(indexed->best(), nullptr);
}

// Property: the physical order equals sorting by aged value at any time.
TEST(OrderedTableProperty, SnapshotIsSortedByAgedValue) {
  auto table = make_ordered_table(32, TableImpl::kIndexed);
  util::Rng rng(7);
  SimTime now = 0;
  for (int i = 0; i < 500; ++i) {
    ++now;
    const ObjectId object = rng.below(100);
    if (table->contains(object)) {
      auto e = table->remove(object);
      e->calc_average(now);
      table->insert(*e);
    } else {
      if (table->full()) table->remove_worst();
      table->insert(make_entry(object, 0, now));
    }
    const auto snapshot = table->snapshot();
    for (std::size_t k = 1; k < snapshot.size(); ++k) {
      ASSERT_LE(snapshot[k - 1].aged(now), snapshot[k].aged(now) + 1e-9)
          << "iteration " << i << " position " << k;
    }
  }
}

}  // namespace
}  // namespace adc::cache
