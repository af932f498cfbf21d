#include "util/keyed_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace adc::util {
namespace {

struct Item {
  std::uint64_t id;
  int value;
  std::uint64_t key() const noexcept { return id; }
};

using List = KeyedList<Item>;

std::vector<std::pair<std::uint64_t, int>> walk(const List& list) {
  std::vector<std::pair<std::uint64_t, int>> out;
  list.for_each([&out](const Item& item) { out.emplace_back(item.id, item.value); });
  return out;
}

TEST(KeyedList, EmptyListHasNoEnds) {
  const List list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.front(), List::kNil);
  EXPECT_EQ(list.back(), List::kNil);
  EXPECT_EQ(list.find(7), List::kNil);
}

TEST(KeyedList, PushMoveAndEraseKeepOrder) {
  List list;
  list.push_back(Item{1, 10});
  list.push_back(Item{2, 20});
  list.push_front(Item{3, 30});
  using Walk = std::vector<std::pair<std::uint64_t, int>>;
  EXPECT_EQ(walk(list), (Walk{{3, 30}, {1, 10}, {2, 20}}));
  list.move_to_front(list.find(2));
  EXPECT_EQ(walk(list), (Walk{{2, 20}, {3, 30}, {1, 10}}));
  list.move_to_back(list.find(2));
  EXPECT_EQ(walk(list), (Walk{{3, 30}, {1, 10}, {2, 20}}));
  EXPECT_EQ(list.erase(list.find(1)).value, 10);
  EXPECT_FALSE(list.contains(1));
  EXPECT_FALSE(list.erase_key(1));
  EXPECT_TRUE(list.erase_key(3));
  EXPECT_EQ(walk(list), (Walk{{2, 20}}));
  EXPECT_EQ(list.front(), list.back());
  EXPECT_EQ(list[list.front()].id, 2u);
}

TEST(KeyedList, ReleasedRowsAreRecycledBeforeGrowing) {
  List list;
  const auto a = list.push_back(Item{1, 1});
  list.push_back(Item{2, 2});
  list.erase(a);
  EXPECT_EQ(list.push_back(Item{3, 3}), a);  // the freed row, not a new one
  list.clear();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.push_front(Item{4, 4}), 0u);  // clear() restarts the slot numbers
  EXPECT_EQ(list[list.find(4)].value, 4);
}

TEST(KeyedList, ReservedListKeepsRowsInPlace) {
  List list(64);
  const Item* first = &list[list.push_back(Item{0, 0})];
  for (std::uint64_t key = 1; key < 64; ++key) list.push_back(Item{key, static_cast<int>(key)});
  EXPECT_EQ(first, &list[list.find(0)]);
}

// The last row of each page and the first of the next, for the default
// layout: pages of 64, 128, ..., 2048 rows, then 4,096 each.
TEST(KeyedList, PageBoundariesFollowTheDoublingLayout) {
  static_assert(List::kFirstPageRows == 64 && List::kMaxPageRows == 4096);
  List list;
  std::vector<const Item*> where;
  for (std::uint64_t key = 0; key < 20000; ++key) {
    const auto slot = list.push_back(Item{key, static_cast<int>(key)});
    ASSERT_EQ(slot, key);
    where.push_back(&list[slot]);
  }
  // Pushes never move a row: every reference taken along the way holds.
  for (const std::uint64_t slot : {0u, 63u, 64u, 191u, 192u, 4031u, 4032u, 8127u, 8128u,
                                   12223u, 12224u, 19999u}) {
    EXPECT_EQ(where[slot], &list[static_cast<List::Slot>(slot)]) << "slot " << slot;
    EXPECT_EQ(where[slot]->id, slot);
  }
  // Each page is one contiguous run of rows.
  const auto bytes_between = [&where](std::size_t a, std::size_t b) {
    return reinterpret_cast<const char*>(where[b]) - reinterpret_cast<const char*>(where[a]);
  };
  const std::pair<std::size_t, std::size_t> pages[] = {
      {0, 63},      {64, 191},     {192, 447},    {448, 959},     {960, 1983},
      {1984, 4031}, {4032, 8127},  {8128, 12223}, {12224, 16319},
  };
  for (const auto& [first, last] : pages) {
    EXPECT_EQ(bytes_between(first, last),
              static_cast<std::ptrdiff_t>((last - first) * sizeof(List::Row)))
        << "page " << first << ".." << last;
  }
  for (std::uint64_t key = 0; key < 20000; ++key) ASSERT_EQ(list[list.find(key)].value, key);
  std::uint64_t expect = 0;
  list.for_each([&expect](const Item& item) { EXPECT_EQ(item.id, expect++); });
  EXPECT_EQ(expect, 20000u);
}

TEST(KeyedList, CopyOfAMultiPageListIsIndependent) {
  List list;
  for (std::uint64_t key = 0; key < 9000; ++key) list.push_back(Item{key, 1});
  List copy = list;
  for (std::uint64_t key = 0; key < 9000; key += 2) copy.erase_key(key);
  // 4,500 pushes reuse the erased rows; the rest fill the copy's last page.
  const Item* kept = &copy[copy.find(8999)];
  for (std::uint64_t key = 9000; key < 15000; ++key) copy.push_front(Item{key, 2});
  EXPECT_EQ(kept, &copy[copy.find(8999)]);  // the copy's rows stay put too
  copy[copy.find(1)].value = 7;
  EXPECT_EQ(list.size(), 9000u);
  EXPECT_EQ(copy.size(), 10500u);
  EXPECT_EQ(list[list.find(1)].value, 1);
  EXPECT_TRUE(list.contains(0));
  EXPECT_FALSE(list.contains(9000));
  EXPECT_EQ(list.front(), list.find(0));
  EXPECT_EQ(copy.front(), copy.find(14999));
  List assigned;
  assigned.push_back(Item{5, 5});
  assigned = copy;
  EXPECT_EQ(walk(assigned), walk(copy));
  EXPECT_NE(&assigned[assigned.find(1)], &copy[copy.find(1)]);
}

// A row is found through a table of 64-row chunk pointers.  Rows on
// either side of every chunk boundary in the first pages (and of page
// boundaries, which are chunk boundaries too) read back in the list, in a
// copy, after pushes into the copy, and in a list moved from the copy.
TEST(KeyedList, RowsReadBackAcrossChunkBoundariesAndAfterACopy) {
  List list;
  constexpr std::uint64_t kRows = 9000;
  for (std::uint64_t key = 0; key < kRows; ++key) {
    list.push_back(Item{key * 7 + 3, static_cast<int>(key)});
  }
  const auto expect_rows = [](const List& l, const char* what) {
    for (std::uint64_t boundary = 64; boundary < kRows; boundary += 64) {
      for (const std::uint64_t slot : {boundary - 1, boundary}) {
        const Item& item = l[static_cast<List::Slot>(slot)];
        ASSERT_EQ(item.id, slot * 7 + 3) << what << " slot " << slot;
        ASSERT_EQ(item.value, static_cast<int>(slot)) << what << " slot " << slot;
        ASSERT_EQ(l.find(slot * 7 + 3), slot) << what << " slot " << slot;
      }
    }
  };
  expect_rows(list, "original");
  List copy = list;
  expect_rows(copy, "copy");
  for (std::uint64_t key = kRows; key < kRows + 200; ++key) {
    copy.push_back(Item{key * 7 + 3, static_cast<int>(key)});
  }
  for (List::Slot slot = 8999; slot < 9200; ++slot) {
    ASSERT_EQ(copy[slot].id, std::uint64_t{slot} * 7 + 3) << "slot " << slot;
  }
  EXPECT_FALSE(list.contains(9100 * 7 + 3));
  const Item* in_copy = &copy[4096];
  const List moved = std::move(copy);
  EXPECT_EQ(&moved[4096], in_copy);  // a move keeps the pages and their chunks
  expect_rows(moved, "moved");
  expect_rows(list, "original after the copy");
}

TEST(KeyedList, ClearThenRefillReusesPages) {
  List list;
  std::vector<const Item*> before;
  for (std::uint64_t key = 0; key < 5000; ++key) {
    before.push_back(&list[list.push_back(Item{key, 0})]);
  }
  list.clear();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.front(), List::kNil);
  for (std::uint64_t key = 0; key < 5000; ++key) {
    const auto slot = list.push_front(Item{key + 100000, 1});
    ASSERT_EQ(slot, key);
    ASSERT_EQ(&list[slot], before[key]) << "slot " << slot;  // the same page memory
  }
  EXPECT_FALSE(list.contains(0));
  EXPECT_EQ(list[list.front()].id, 104999u);
}

TEST(KeyedList, RandomChurnMatchesListAndMap) {
  // Reference: std::list for the order plus a map from key to iterator.
  // The first half mostly pushes, so the list passes 10k rows (several
  // full pages); the second half mostly erases, recycling rows across
  // pages through the free list.
  List list;
  std::list<std::pair<std::uint64_t, int>> ref;
  std::unordered_map<std::uint64_t, std::list<std::pair<std::uint64_t, int>>::iterator> where;
  Rng rng(21);
  std::size_t most = 0;
  constexpr int kSteps = 60000;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t key = rng.next() % 40000;
    const int value = static_cast<int>(rng.next() % 1000);
    const auto slot = list.find(key);
    ASSERT_EQ(slot != List::kNil, where.count(key) != 0) << "step " << step;
    // Operation per roll of 8: 0 push_front, 1 push_back, 2 move, 3 erase.
    static constexpr int kGrowing[8] = {0, 1, 0, 1, 0, 2, 2, 3};
    static constexpr int kShrinking[8] = {0, 1, 2, 3, 3, 3, 3, 3};
    const std::uint64_t roll = rng.next() % 8;
    switch ((step < kSteps / 2 ? kGrowing : kShrinking)[roll]) {
      case 0:
        if (slot == List::kNil) {
          list.push_front(Item{key, value});
          ref.emplace_front(key, value);
          where[key] = ref.begin();
        }
        break;
      case 1:
        if (slot == List::kNil) {
          list.push_back(Item{key, value});
          ref.emplace_back(key, value);
          where[key] = std::prev(ref.end());
        }
        break;
      case 2:
        if (slot != List::kNil) {
          list.move_to_front(slot);
          ref.splice(ref.begin(), ref, where[key]);
        }
        break;
      default:
        if (slot != List::kNil) {
          ASSERT_EQ(list.erase(slot).value, where[key]->second);
          ref.erase(where[key]);
          where.erase(key);
        }
        break;
    }
    ASSERT_EQ(list.size(), ref.size());
    most = std::max(most, list.size());
    if (step % 2000 == 0) {
      const std::vector<std::pair<std::uint64_t, int>> want(ref.begin(), ref.end());
      ASSERT_EQ(walk(list), want);
    }
  }
  EXPECT_GT(most, 10000u);
  const std::vector<std::pair<std::uint64_t, int>> want(ref.begin(), ref.end());
  EXPECT_EQ(walk(list), want);
}

}  // namespace
}  // namespace adc::util
