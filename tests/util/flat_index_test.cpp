#include "util/flat_index.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "util/rng.h"

namespace adc::util {
namespace {

TEST(FlatIndex, EmptyFindsNothing) {
  const FlatIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.find(0), FlatIndex::kNone);
  EXPECT_EQ(index.find(12345), FlatIndex::kNone);
}

TEST(FlatIndex, AssignFindEraseRoundTrip) {
  FlatIndex index(4);
  index.assign(7, 70);
  index.assign(0, 1);  // key 0 is an ordinary key
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.find(7), 70u);
  EXPECT_EQ(index.find(0), 1u);
  index.assign(7, 71);  // reassign replaces, does not grow
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.find(7), 71u);
  EXPECT_TRUE(index.erase(7));
  EXPECT_FALSE(index.erase(7));
  EXPECT_FALSE(index.contains(7));
  EXPECT_TRUE(index.contains(0));
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndex, GrowsPastItsReservation) {
  FlatIndex index(2);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    index.assign(key * 1000003, static_cast<std::uint32_t>(key));
  }
  EXPECT_EQ(index.size(), 1000u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(index.find(key * 1000003), key);
  }
}

TEST(FlatIndex, ClearKeepsWorking) {
  FlatIndex index(8);
  for (std::uint32_t key = 0; key < 8; ++key) index.assign(key, key);
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.find(3), FlatIndex::kNone);
  index.assign(3, 30);
  EXPECT_EQ(index.find(3), 30u);
}

// A growing index rehashes into the block-local layout once its array
// reaches kBlockLocalBuckets; every key must survive the switch.
TEST(FlatIndex, GrowsIntoTheBlockLocalLayout) {
  FlatIndex index;
  constexpr std::uint64_t kCount = FlatIndex::kBlockLocalBuckets;  // past 3/4 of it
  for (std::uint64_t key = 0; key < kCount; ++key) {
    index.assign(key, static_cast<std::uint32_t>(key));
  }
  EXPECT_EQ(index.size(), kCount);
  for (std::uint64_t key = 0; key < kCount; ++key) ASSERT_EQ(index.find(key), key);
  EXPECT_EQ(index.find(kCount), FlatIndex::kNone);
}

// Backward-shift deletion must keep every surviving key reachable under
// heavy churn, including runs that wrap around the end of the bucket
// array and runs that spill out of a home block; checked against
// std::unordered_map with the key shapes the simulator uses and ones that
// defeat a block-local home, in a small index (whole-key homes, a small
// key space, many collisions) and in one reserved past
// kBlockLocalBuckets (block-local homes, thousands of keys).
TEST(FlatIndex, MatchesUnorderedMapUnderRandomChurn) {
  const struct {
    const char* name;
    std::uint64_t (*key)(std::uint64_t draw);
  } patterns[] = {
      {"dense", [](std::uint64_t r) { return r; }},
      {"repair x131+i", [](std::uint64_t r) { return (1000 + r / 8) * 131 + r % 8; }},
      {"multiple of 8", [](std::uint64_t r) { return r * 8; }},
      {"k << 32", [](std::uint64_t r) { return r << 32; }},
      {"k << 48", [](std::uint64_t r) { return r << 48; }},
      {"golden stride", [](std::uint64_t r) { return std::uint64_t{r * 0x9E3779B97F4A7C15ULL}; }},
  };
  const struct {
    std::size_t reserve;
    std::uint64_t keys;     // distinct keys drawn
    int steps;
    int full_check_every;  // steps between checks of every key
  } sizes[] = {{16, 256, 20000, 1}, {FlatIndex::kBlockLocalBuckets / 2, 24000, 60000, 5000}};
  for (const auto& size : sizes) {
    for (const auto& pattern : patterns) {
      FlatIndex index(size.reserve);
      std::unordered_map<std::uint64_t, std::uint32_t> model;
      Rng rng(pattern.key(7) + size.keys);
      const auto check = [&](std::uint64_t probe, int step) {
        const auto it = model.find(probe);
        ASSERT_EQ(index.find(probe), it == model.end() ? FlatIndex::kNone : it->second)
            << pattern.name << " keys " << size.keys << " step " << step << " key " << probe;
      };
      for (int step = 0; step < size.steps; ++step) {
        const std::uint64_t key = pattern.key(rng.below(size.keys));
        if (rng.below(3) == 0) {
          ASSERT_EQ(index.erase(key), model.erase(key) == 1) << pattern.name << " step " << step;
        } else {
          const auto slot = static_cast<std::uint32_t>(rng.below(1000));
          index.assign(key, slot);
          model[key] = slot;
        }
        ASSERT_EQ(index.size(), model.size());
        if (step % size.full_check_every == 0) {
          for (std::uint64_t draw = 0; draw < size.keys; ++draw) check(pattern.key(draw), step);
        } else {
          check(key, step);
          for (int i = 0; i < 16; ++i) check(pattern.key(rng.below(size.keys)), step);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace adc::util
