#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

namespace adc::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng.next());
  rng.reseed(77);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(9);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (int count : counts) {
    EXPECT_NEAR(count, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeSingleton) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.range(42, 42), 42);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(17);
  int successes = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.chance(0.3)) ++successes;
  }
  EXPECT_NEAR(successes / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.exponential(5.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000.0, 5.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(23);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  int moved = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[static_cast<std::size_t>(i)] != i) ++moved;
  }
  EXPECT_GT(moved, 50);
}

TEST(Splitmix64, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // Regression pin: the seeding procedure must never silently change, or
  // every recorded experiment output becomes unreproducible.
  std::uint64_t replay_state = 0;
  EXPECT_EQ(splitmix64(replay_state), first);
  EXPECT_EQ(splitmix64(replay_state), second);
}

class ZipfSamplerTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplerTest, PmfSumsToOne) {
  const ZipfSampler zipf(500, GetParam());
  double total = 0.0;
  for (std::size_t r = 1; r <= 500; ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(ZipfSamplerTest, PmfIsMonotoneDecreasing) {
  const ZipfSampler zipf(500, GetParam());
  for (std::size_t r = 2; r <= 500; ++r) {
    EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1) + 1e-12) << "rank " << r;
  }
}

TEST_P(ZipfSamplerTest, SamplesMatchPmf) {
  const ZipfSampler zipf(50, GetParam());
  Rng rng(31);
  std::map<std::size_t, int> counts;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 1; r <= 5; ++r) {
    const double expected = zipf.pmf(r) * kSamples;
    EXPECT_NEAR(counts[r], expected, expected * 0.05 + 50) << "rank " << r;
  }
}

TEST_P(ZipfSamplerTest, SamplesInRange) {
  const ZipfSampler zipf(10, GetParam());
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t r = zipf.sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 10u);
  }
}

// The rank a plain binary search over the CDF picks: the first rank whose
// CDF is >= u.
std::size_t searched_rank(const std::vector<double>& cdf, double u) {
  return static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()) + 1;
}

std::vector<double> cdf_of(const ZipfSampler& zipf) {
  std::vector<double> cdf;
  for (std::size_t r = 1; r <= zipf.n(); ++r) cdf.push_back(zipf.cdf(r));
  return cdf;
}

// The guide table must only shorten the search, never change its answer.
TEST_P(ZipfSamplerTest, GuidedRankMatchesBinarySearchOnDraws) {
  const ZipfSampler zipf(5000, GetParam());
  const std::vector<double> cdf = cdf_of(zipf);
  Rng rng(43);
  for (int i = 0; i < 1000000; ++i) {
    const double u = rng.uniform();
    ASSERT_EQ(zipf.rank_of(u), searched_rank(cdf, u)) << "u = " << u;
  }
}

// Draws that land exactly on a CDF value, or one ulp either side of it,
// are where a guide table built with different rounding would go wrong.
TEST_P(ZipfSamplerTest, GuidedRankMatchesBinarySearchAtEveryCdfValue) {
  for (const std::size_t n : {1u, 2u, 3u, 10u, 97u, 1000u, 4099u}) {
    const ZipfSampler zipf(n, GetParam());
    const std::vector<double> cdf = cdf_of(zipf);
    std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
    for (const double c : cdf) {
      for (const double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)}) {
        if (u >= 0.0 && u < 1.0) probes.push_back(u);
      }
    }
    for (std::size_t j = 0; j <= n; ++j) {  // the guide table's own edges
      const double edge = static_cast<double>(j) / static_cast<double>(n);
      for (const double u : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 2.0)}) {
        if (u >= 0.0 && u < 1.0) probes.push_back(u);
      }
    }
    for (const double u : probes) {
      ASSERT_EQ(zipf.rank_of(u), searched_rank(cdf, u)) << "n = " << n << ", u = " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfSamplerTest,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.1, 1.5));

TEST(ZipfSampler, PmfOutOfRangeIsZero) {
  const ZipfSampler zipf(10, 1.0);
  EXPECT_EQ(zipf.pmf(0), 0.0);
  EXPECT_EQ(zipf.pmf(11), 0.0);
}

TEST(ZipfSampler, SingleElement) {
  const ZipfSampler zipf(1, 1.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 1u);
  EXPECT_NEAR(zipf.pmf(1), 1.0, 1e-12);
}

TEST(ZipfSampler, AlphaZeroIsUniform) {
  const ZipfSampler zipf(4, 0.0);
  for (std::size_t r = 1; r <= 4; ++r) EXPECT_NEAR(zipf.pmf(r), 0.25, 1e-9);
}

}  // namespace
}  // namespace adc::util
