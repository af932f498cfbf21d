#include "util/keyed_list.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(list.push_front(Item{4, 4}), 0u);  // clear() restarts the slab
  EXPECT_EQ(list[list.find(4)].value, 4);
}

TEST(KeyedList, ReservedListKeepsRowsInPlace) {
  List list(64);
  const Item* first = &list[list.push_back(Item{0, 0})];
  for (std::uint64_t key = 1; key < 64; ++key) list.push_back(Item{key, static_cast<int>(key)});
  EXPECT_EQ(first, &list[list.find(0)]);
}

TEST(KeyedList, RandomChurnMatchesListAndMap) {
  // Reference: std::list for the order plus a map from key to iterator.
  List list;
  std::list<std::pair<std::uint64_t, int>> ref;
  std::unordered_map<std::uint64_t, std::list<std::pair<std::uint64_t, int>>::iterator> where;
  Rng rng(21);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next() % 300;
    const int value = static_cast<int>(rng.next() % 1000);
    const auto slot = list.find(key);
    ASSERT_EQ(slot != List::kNil, where.count(key) != 0) << "step " << step;
    switch (rng.next() % 4) {
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
    if (step % 500 == 0) {
      const std::vector<std::pair<std::uint64_t, int>> want(ref.begin(), ref.end());
      ASSERT_EQ(walk(list), want);
    }
  }
}

}  // namespace
}  // namespace adc::util
