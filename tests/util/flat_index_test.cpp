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

// Backward-shift deletion must keep every surviving key reachable under
// heavy churn, including runs that wrap around the end of the bucket
// array; checked against std::unordered_map on a small key space (many
// collisions) with sequential and request-id shaped keys.
TEST(FlatIndex, MatchesUnorderedMapUnderRandomChurn) {
  for (const std::uint64_t stride : {1ULL, 1ULL << 48, 0x9E3779B97F4A7C15ULL}) {
    FlatIndex index(16);
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    Rng rng(stride);
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = rng.below(64) * stride;
      if (rng.below(3) == 0) {
        ASSERT_EQ(index.erase(key), model.erase(key) == 1) << "step " << step;
      } else {
        const auto slot = static_cast<std::uint32_t>(rng.below(1000));
        index.assign(key, slot);
        model[key] = slot;
      }
      ASSERT_EQ(index.size(), model.size());
      for (std::uint64_t probe = 0; probe < 64; ++probe) {
        const auto it = model.find(probe * stride);
        ASSERT_EQ(index.find(probe * stride), it == model.end() ? FlatIndex::kNone : it->second)
            << "step " << step << " key " << probe * stride;
      }
    }
  }
}

}  // namespace
}  // namespace adc::util
