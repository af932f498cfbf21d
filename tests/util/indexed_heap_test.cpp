#include "util/indexed_heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace adc::util {
namespace {

/// A heap of ids ranked by a priority kept outside the heap (ties broken
/// by id, as the tables break them by seq), with every id's reported
/// position, checked against an ordered std::set of {priority, id}.
struct Harness {
  std::vector<std::uint32_t> heap;
  std::vector<std::int64_t> priority;
  std::vector<std::size_t> position;
  std::set<std::pair<std::int64_t, std::uint32_t>> reference;

  auto before() const {
    return [this](std::uint32_t a, std::uint32_t b) {
      return std::pair(priority[a], a) < std::pair(priority[b], b);
    };
  }
  auto placed() {
    return [this](std::uint32_t id, std::size_t pos) { position[id] = pos; };
  }

  void push(std::int64_t p) {
    const auto id = static_cast<std::uint32_t>(priority.size());
    priority.push_back(p);
    position.push_back(0);
    reference.emplace(p, id);
    heap_push(heap, id, before(), placed());
  }
  void erase_at(std::size_t pos) {
    const std::uint32_t id = heap[pos];
    reference.erase({priority[id], id});
    heap_erase(heap, pos, before(), placed());
  }
  void rerank_at(std::size_t pos, std::int64_t p) {
    const std::uint32_t id = heap[pos];
    reference.erase({priority[id], id});
    priority[id] = p;
    reference.emplace(p, id);
    heap_sift(heap, pos, before(), placed());
  }

  /// The root, the size, every reported position, and the heap order.
  void check(int step) const {
    ASSERT_EQ(heap.size(), reference.size()) << "step " << step;
    if (!heap.empty()) {
      ASSERT_EQ(heap.front(), reference.begin()->second) << "step " << step;
    }
    for (std::size_t pos = 0; pos < heap.size(); ++pos) {
      ASSERT_EQ(position[heap[pos]], pos) << "step " << step;
      if (pos > 0) {
        ASSERT_FALSE(before()(heap[pos], heap[(pos - 1) / 2])) << "step " << step;
      }
    }
  }
};

TEST(IndexedHeap, MatchesOrderedSetUnderRandomSteps) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Harness h;
    for (int step = 0; step < 4000; ++step) {
      // A narrow priority range makes ties, which the id must break.
      const auto p = static_cast<std::int64_t>(rng.below(50));
      const std::uint64_t roll = rng.below(100);
      if (h.heap.empty() || roll < 40) {
        h.push(p);
      } else if (roll < 50) {
        h.erase_at(0);
      } else if (roll < 60) {
        h.erase_at(h.heap.size() - 1);
      } else if (roll < 70) {
        h.erase_at(rng.index(h.heap.size()));
      } else {
        // Raise or lower a random key in place.
        const std::size_t pos = rng.index(h.heap.size());
        h.rerank_at(pos, h.priority[h.heap[pos]] + (roll < 85 ? -p : p));
      }
      h.check(step);
      if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << seed;
    }
  }
}

TEST(IndexedHeap, ErasingTheLastKeyMovesNothing) {
  Harness h;
  for (const std::int64_t p : {1, 2, 3}) h.push(p);
  const std::vector<std::uint32_t> before = h.heap;
  h.erase_at(2);
  EXPECT_EQ(h.heap, (std::vector<std::uint32_t>{before[0], before[1]}));
  h.check(0);
}

}  // namespace
}  // namespace adc::util
