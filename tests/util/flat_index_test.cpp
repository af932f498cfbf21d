#include "util/flat_index.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace adc::util {
namespace {

// The rows an index points into: row r holds keys[r].  The index reads a
// key only through key_of(), which counts the reads.
struct Rows {
  std::vector<std::uint64_t> keys;
  mutable std::size_t reads = 0;

  std::uint32_t add(std::uint64_t key) {
    keys.push_back(key);
    return static_cast<std::uint32_t>(keys.size() - 1);
  }
  auto key_of() const {
    return [this](std::uint32_t slot) {
      ++reads;
      return keys.at(slot);
    };
  }
};

TEST(FlatIndex, EmptyFindsNothing) {
  const FlatIndex index;
  const Rows rows;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.find(0, rows.key_of()), FlatIndex::kNone);
  EXPECT_EQ(index.find(12345, rows.key_of()), FlatIndex::kNone);
}

TEST(FlatIndex, AssignFindEraseRoundTrip) {
  FlatIndex index(4);
  Rows rows;
  index.assign(7, rows.add(7), rows.key_of());
  index.assign(0, rows.add(0), rows.key_of());  // key 0 is an ordinary key
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.find(7, rows.key_of()), 0u);
  EXPECT_EQ(index.find(0, rows.key_of()), 1u);
  index.assign(7, rows.add(7), rows.key_of());  // reassign replaces, does not grow
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.find(7, rows.key_of()), 2u);
  index.erase(7, 2);
  EXPECT_FALSE(index.contains(7, rows.key_of()));
  EXPECT_TRUE(index.contains(0, rows.key_of()));
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndex, GrowsPastItsReservation) {
  FlatIndex index(2);
  Rows rows;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    index.assign(key * 1000003, rows.add(key * 1000003), rows.key_of());
  }
  EXPECT_EQ(index.size(), 1000u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(index.find(key * 1000003, rows.key_of()), key);
  }
}

TEST(FlatIndex, ClearKeepsWorking) {
  FlatIndex index(8);
  Rows rows;
  for (std::uint32_t key = 0; key < 8; ++key) index.assign(key, rows.add(key), rows.key_of());
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.find(3, rows.key_of()), FlatIndex::kNone);
  index.assign(3, rows.add(3), rows.key_of());
  EXPECT_EQ(index.find(3, rows.key_of()), 8u);
}

// A growing index rehashes into the block-local layout once its array
// reaches kBlockLocalBuckets; every key must survive the switch.
TEST(FlatIndex, GrowsIntoTheBlockLocalLayout) {
  FlatIndex index;
  Rows rows;
  constexpr std::uint64_t kCount = FlatIndex::kBlockLocalBuckets;  // past 3/4 of it
  for (std::uint64_t key = 0; key < kCount; ++key) {
    index.assign(key, rows.add(key), rows.key_of());
  }
  EXPECT_EQ(index.size(), kCount);
  for (std::uint64_t key = 0; key < kCount; ++key) ASSERT_EQ(index.find(key, rows.key_of()), key);
  EXPECT_EQ(index.find(kCount, rows.key_of()), FlatIndex::kNone);
}

// Every draw of every shape below, run through one churn against
// std::unordered_map: the index assigns a fresh row per assign (the row
// holds the key, as an owner's would), erases by the slot it found, and
// must answer every find as the map does.
void churn_against_a_map(std::uint64_t (*key)(std::uint64_t draw), const char* name,
                         std::size_t reserve, std::uint64_t keys, int steps,
                         int full_check_every) {
  FlatIndex index(reserve);
  Rows rows;
  std::unordered_map<std::uint64_t, std::uint32_t> model;
  Rng rng(key(7) + keys);
  const auto check = [&](std::uint64_t probe, int step) {
    const auto it = model.find(probe);
    ASSERT_EQ(index.find(probe, rows.key_of()), it == model.end() ? FlatIndex::kNone : it->second)
        << name << " keys " << keys << " step " << step << " key " << probe;
  };
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t k = key(rng.below(keys));
    if (rng.below(3) == 0) {
      const std::uint32_t slot = index.find(k, rows.key_of());
      ASSERT_EQ(slot != FlatIndex::kNone, model.count(k) == 1) << name << " step " << step;
      if (slot != FlatIndex::kNone) index.erase(k, slot);
      model.erase(k);
    } else {
      const std::uint32_t slot = rows.add(k);
      index.assign(k, slot, rows.key_of());
      model[k] = slot;
    }
    ASSERT_EQ(index.size(), model.size());
    if (step % full_check_every == 0) {
      for (std::uint64_t draw = 0; draw < keys; ++draw) check(key(draw), step);
    } else {
      check(k, step);
      for (int i = 0; i < 16; ++i) check(key(rng.below(keys)), step);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
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
      churn_against_a_map(pattern.key, pattern.name, size.reserve, size.keys, size.steps,
                          size.full_check_every);
      if (HasFatalFailure()) return;
    }
  }
}

// Keys built to share a tag: the index's hash is a multiplication by the
// Fibonacci constant, which is odd and so has an inverse mod 2^64; a key
// is chosen by its hash.  The whole-key tag is the hash's top 32 bits;
// the block-local tag is the top 29 bits of the hash of key >> 3 and
// key & 7.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t inverse(std::uint64_t odd) {
  std::uint64_t x = odd;  // correct to 3 bits; each step doubles them
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}
constexpr std::uint64_t kUnFibonacci = inverse(kFibonacci);
static_assert(kFibonacci * kUnFibonacci == 1);

/// Key `member` of group `group`: every member has the same whole-key tag.
std::uint64_t whole_key_twin(std::uint64_t group, std::uint64_t member) {
  const std::uint64_t tag = (group * 0x2545F491U) & 0xFFFFFFFFU;
  return ((tag << 32) | (member * 0x10001U + 1)) * kUnFibonacci;
}

/// Key `member` of group `group`: every member has the same block-local
/// tag.  Searches the hashes with the group's top 29 bits for one whose
/// preimage is below 2^61, so that the preimage can be key >> 3.
std::uint64_t block_local_twin(std::uint64_t group, std::uint64_t member) {
  const std::uint64_t top = (group * 0x2545F491U) & ((std::uint64_t{1} << 29) - 1);
  for (std::uint64_t low = member * 64 + 1;; ++low) {
    const std::uint64_t high = ((top << 35) | low) * kUnFibonacci;
    if (high < (std::uint64_t{1} << 61)) return (high << 3) | (group & 7);
  }
}

// A probe reads a row only when a bucket's tag matches: the crafted twins
// do share tags (a find for an absent twin reads the present one's row),
// and a probe of a key whose tag nothing shares reads no row.
TEST(FlatIndex, ReadsARowOnlyOnATagMatch) {
  FlatIndex small(16);
  Rows rows;
  small.assign(whole_key_twin(3, 0), rows.add(whole_key_twin(3, 0)), rows.key_of());
  rows.reads = 0;
  EXPECT_EQ(small.find(whole_key_twin(3, 1), rows.key_of()), FlatIndex::kNone);
  EXPECT_EQ(rows.reads, 1u);
  rows.reads = 0;
  EXPECT_EQ(small.find(whole_key_twin(4, 0), rows.key_of()), FlatIndex::kNone);
  EXPECT_EQ(rows.reads, 0u);

  FlatIndex large(FlatIndex::kBlockLocalBuckets);
  large.assign(block_local_twin(5, 0), rows.add(block_local_twin(5, 0)), rows.key_of());
  rows.reads = 0;
  EXPECT_EQ(large.find(block_local_twin(5, 1), rows.key_of()), FlatIndex::kNone);
  EXPECT_EQ(rows.reads, 1u);
  rows.reads = 0;
  EXPECT_EQ(large.find(block_local_twin(6, 0), rows.key_of()), FlatIndex::kNone);
  EXPECT_EQ(rows.reads, 0u);
}

// The churn of MatchesUnorderedMapUnderRandomChurn over keys that come in
// groups of eight sharing a tag: a find that took a tag match for the key
// would return a twin's slot.  Covers a whole-key index, a block-local one
// and one that grows from the first layout into the second mid-churn.
TEST(FlatIndex, TwinsSharingATagStayApartUnderChurn) {
  const auto whole_key = [](std::uint64_t r) {
    return r % 2 == 0 ? whole_key_twin(r / 16, r / 2 % 8) : r;
  };
  const auto block_local = [](std::uint64_t r) {
    return r % 2 == 0 ? block_local_twin(r / 16, r / 2 % 8) : r;
  };
  const auto both = [](std::uint64_t r) {
    switch (r % 3) {
      case 0: return whole_key_twin(r / 24, r / 3 % 8);
      case 1: return block_local_twin(r / 24, r / 3 % 8);
      default: return r;
    }
  };
  churn_against_a_map(whole_key, "whole-key twins", 16, 512, 20000, 1);
  if (HasFatalFailure()) return;
  churn_against_a_map(block_local, "block-local twins", FlatIndex::kBlockLocalBuckets / 2, 4000,
                      30000, 3000);
  if (HasFatalFailure()) return;
  // 40,000 keys drawn, two thirds assigned at a time: the index passes
  // 3/4 of 2^14 buckets, and so switches layout, early in the churn.
  churn_against_a_map(both, "twins across the switch", 0, 40000, 60000, 10000);
}

// The sets hold keys in their buckets; the same shapes and the same
// growth through both layouts, against std::unordered_set.
TEST(FlatSet, MatchesUnorderedSetUnderRandomChurn) {
  const struct {
    const char* name;
    std::uint64_t (*key)(std::uint64_t draw);
  } patterns[] = {
      {"dense", [](std::uint64_t r) { return r; }},
      {"request ids", [](std::uint64_t r) { return (std::uint64_t{5 + r % 3} << 48) | r; }},
      {"k << 32", [](std::uint64_t r) { return r << 32; }},
      {"whole-key twins", [](std::uint64_t r) { return whole_key_twin(r / 8, r % 8); }},
      {"block-local twins", [](std::uint64_t r) { return block_local_twin(r / 8, r % 8); }},
  };
  for (const auto& pattern : patterns) {
    for (const std::size_t reserve : {std::size_t{0}, FlatIndex::kBlockLocalBuckets / 2}) {
      FlatSet set(reserve);
      std::unordered_set<std::uint64_t> model;
      Rng rng(reserve + 3);
      constexpr std::uint64_t kKeys = 30000;
      for (int step = 0; step < 60000; ++step) {
        const std::uint64_t key = pattern.key(rng.below(kKeys));
        if (rng.below(3) == 0) {
          ASSERT_EQ(set.erase(key), model.erase(key) == 1) << pattern.name << " step " << step;
        } else {
          ASSERT_EQ(set.insert(key), model.insert(key).second) << pattern.name << " step " << step;
        }
        ASSERT_EQ(set.size(), model.size());
        for (int i = 0; i < 8; ++i) {
          const std::uint64_t probe = pattern.key(rng.below(kKeys));
          ASSERT_EQ(set.contains(probe), model.count(probe) == 1)
              << pattern.name << " step " << step << " key " << probe;
        }
      }
      for (std::uint64_t draw = 0; draw < kKeys; ++draw) {
        ASSERT_EQ(set.contains(pattern.key(draw)), model.count(pattern.key(draw)) == 1);
      }
    }
  }
}

}  // namespace
}  // namespace adc::util
