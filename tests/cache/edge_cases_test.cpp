// Edge cases across the cache structures: extreme skews, long-idle aging,
// and interactions the main suites don't reach.
#include <gtest/gtest.h>

#include <cmath>

#include "cache/table_entry.h"
#include "table_under_test.h"

namespace adc::cache {
namespace {

TEST(EdgeCases, NegativeSkewOrdersBeforePositive) {
  // A recently-touched entry has last > average: its skew is negative.
  auto table = make_ordered_table(4, TableImpl::kIndexed);
  TableEntry recent = make_entry(1, 0, 1000);
  recent.average = 100;  // skew = -900
  TableEntry stale = make_entry(2, 0, 10);
  stale.average = 5;  // skew = -5
  table->insert(stale);
  table->insert(recent);
  EXPECT_EQ(table->best()->object, 1u);
  EXPECT_EQ(table->worst()->object, 2u);
}

TEST(EdgeCases, LongIdleEntryAgesOutOfFavour) {
  // An entry with a brilliant average but touched ages ago must rank
  // behind a mediocre but fresh one.
  TableEntry once_hot = make_entry(1, 0, 0);
  once_hot.average = 2;
  once_hot.last = 100;
  TableEntry fresh = make_entry(2, 0, 0);
  fresh.average = 500;
  fresh.last = 100000;
  EXPECT_GT(once_hot.aged(100500), fresh.aged(100500));
}

TEST(EdgeCases, CalcAverageWithZeroGap) {
  // Two touches at the same local time (a looping reply passing twice):
  // the gap is 0 and the average halves — the behaviour Figure 9 encodes.
  TableEntry entry = make_entry(1, 0, 50);
  entry.calc_average(150);  // avg 100
  entry.calc_average(150);  // avg (100 + 0) / 2 = 50
  EXPECT_EQ(entry.average, 50);
  EXPECT_EQ(entry.hits, 3u);
}

TEST(EdgeCases, LargeTimesDoNotOverflow) {
  TableEntry entry = make_entry(1, 0, 1'000'000'000'000LL);
  entry.calc_average(2'000'000'000'000LL);
  EXPECT_EQ(entry.average, 1'000'000'000'000LL);
  EXPECT_GT(entry.aged(3'000'000'000'000LL), 0.0);
  EXPECT_EQ(entry.skew(), -1'000'000'000'000LL);
}

TEST(EdgeCases, OrderedTableManyEqualEntriesEvictInInsertionOrder) {
  auto table = make_ordered_table(5, TableImpl::kFaithful);
  for (ObjectId id = 1; id <= 5; ++id) {
    TableEntry entry = make_entry(id, 0, 0);
    entry.average = 10;
    table->insert(entry);
  }
  // Worst (last row) is the most recent insert among equals.
  EXPECT_EQ(table->remove_worst()->object, 5u);
  EXPECT_EQ(table->remove_worst()->object, 4u);
  EXPECT_EQ(table->remove_worst()->object, 3u);
}

TEST(EdgeCases, SingleTableFaithfulAndIndexedHandleRemoveLastInterleaving) {
  for (const TableImpl impl : {TableImpl::kFaithful, TableImpl::kIndexed}) {
    auto table = make_single_table(3, impl);
    table->insert_on_top(make_entry(1, 0, 0));
    table->insert_on_top(make_entry(2, 0, 0));
    EXPECT_EQ(table->remove_last()->object, 1u);
    table->insert_on_top(make_entry(3, 0, 0));
    table->insert_on_top(make_entry(4, 0, 0));
    EXPECT_EQ(table->size(), 3u);
    // Order: 4, 3, 2.
    const auto snapshot = table->snapshot();
    EXPECT_EQ(snapshot[0].object, 4u);
    EXPECT_EQ(snapshot[2].object, 2u);
  }
}

TEST(EdgeCases, WorstAgedTransitionsAtExactFill) {
  auto table = make_ordered_table(2, TableImpl::kIndexed);
  TableEntry entry = make_entry(1, 0, 100);
  entry.average = 10;
  table->insert(entry);
  EXPECT_TRUE(std::isinf(table->worst_aged(100)));
  TableEntry second = make_entry(2, 0, 100);
  second.average = 50;
  table->insert(second);
  EXPECT_FALSE(std::isinf(table->worst_aged(100)));
  table->remove(2);
  EXPECT_TRUE(std::isinf(table->worst_aged(100)));
}

TEST(EdgeCases, VersionFieldSurvivesTableMoves) {
  auto table = make_ordered_table(2, TableImpl::kIndexed);
  TableEntry entry = make_entry(1, 0, 10);
  entry.version = 42;
  table->insert(entry);
  const auto removed = table->remove(1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->version, 42u);
}

}  // namespace
}  // namespace adc::cache
