// The two row stores driven through their shared handle API directly:
// inserts, erases, refreshes, moves between tables and, on the indexed
// side, seq compaction at random points must leave every table in the same
// order.
#include "cache/table_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace adc::cache {
namespace {

template <typename Rows>
std::vector<ObjectId> order_of(const Rows& rows, TableId table) {
  std::vector<ObjectId> out;
  rows.for_each(table, [&out](const TableEntry& e) { out.push_back(e.object); });
  return out;
}

constexpr TableId kTables[] = {TableId::kCaching, TableId::kMultiple, TableId::kSingle};

/// Applies one operation to either store; both see the same rng draws.
template <typename Rows>
void apply(Rows& rows, std::uint64_t op, ObjectId object, TableId to, SimTime skew_shift) {
  auto h = rows.locate(object);
  if (!h.found()) {
    if (rows.size(to) >= rows.capacity(to)) {
      rows.erase(to == TableId::kSingle ? rows.tail() : rows.worst(to));
    }
    TableEntry e = make_entry(object, 0, 0);
    e.average = skew_shift;
    rows.insert(to, e);
    return;
  }
  switch (op) {
    case 0:
      rows.erase(h);
      break;
    case 1:
      rows.entry(h).average += skew_shift;
      rows.refresh(h);
      break;
    default:
      if (to != h.table && rows.size(to) < rows.capacity(to)) rows.move(h, to);
      break;
  }
}

TEST(TableStoreDifferential, SeqCompactionKeepsEveryOrder) {
  const TableCapacities capacities{6, 40, 20};
  IndexedRows indexed(capacities);
  FaithfulRows faithful(capacities);
  util::Rng rng(314);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.below(3);
    const ObjectId object = rng.below(90);
    const TableId to = kTables[rng.below(3)];
    // A narrow skew range: most orders are decided by insertion seq.
    const auto skew_shift = static_cast<SimTime>(rng.below(3));
    apply(indexed, op, object, to, skew_shift);
    apply(faithful, op, object, to, skew_shift);
    if (rng.below(50) == 0) indexed.compact_seqs();
    for (const TableId table : kTables) {
      ASSERT_EQ(indexed.size(table), faithful.size(table)) << "step " << step;
      ASSERT_EQ(order_of(indexed, table), order_of(faithful, table)) << "step " << step;
    }
  }
}

TEST(TableStoreDifferential, ClearRecyclesEveryRow) {
  IndexedRows rows({2, 2, 2});
  for (int round = 0; round < 3; ++round) {
    for (ObjectId object = 0; object < 6; ++object) {
      rows.insert(kTables[object % 3], make_entry(object + 10 * round, 0, 0));
    }
    for (const TableId table : kTables) EXPECT_EQ(rows.size(table), 2u);
    EXPECT_TRUE(rows.locate(10 * round).found());
    rows.clear();
    EXPECT_FALSE(rows.locate(10 * round).found());
  }
}

}  // namespace
}  // namespace adc::cache
