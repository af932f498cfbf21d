// RDP erasure-code tests: every <= 2-erasure combination over several k
// values must round-trip through reconstruct(), and over-erased or
// malformed stripes must be rejected rather than guessed at.
#include "store/rdp_coding.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace adc::store {
namespace {

std::vector<std::vector<std::uint8_t>> random_stripe(const RdpCode& code,
                                                     std::size_t raw_chunk,
                                                     std::uint64_t seed) {
  const std::size_t padded = code.padded_chunk_size(raw_chunk);
  util::Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> chunks(
      static_cast<std::size_t>(code.stripe_width()));
  for (int c = 0; c < code.k(); ++c) {
    auto& chunk = chunks[static_cast<std::size_t>(c)];
    chunk.resize(padded);
    for (auto& byte : chunk) byte = static_cast<std::uint8_t>(rng.next());
  }
  std::vector<std::vector<std::uint8_t>> data(chunks.begin(),
                                              chunks.begin() + code.k());
  code.encode(data, &chunks[static_cast<std::size_t>(code.k())],
              &chunks[static_cast<std::size_t>(code.k() + 1)]);
  return chunks;
}

TEST(RdpCode, PrimeAndWidthFollowK) {
  EXPECT_EQ(RdpCode(2).p(), 3);
  EXPECT_EQ(RdpCode(3).p(), 5);  // smallest prime >= 4
  EXPECT_EQ(RdpCode(4).p(), 5);
  EXPECT_EQ(RdpCode(6).p(), 7);
  EXPECT_EQ(RdpCode(3).stripe_width(), 5);
  // The one-chunk degenerate case is clamped up to k = 2.
  EXPECT_EQ(RdpCode(1).k(), 2);
  EXPECT_EQ(RdpCode(0).k(), 2);
}

TEST(RdpCode, KIsClampedSoTheStripeFitsSixtyFourChunks) {
  EXPECT_EQ(RdpCode(62).k(), 62);
  EXPECT_EQ(RdpCode(62).stripe_width(), 64);
  EXPECT_EQ(RdpCode(63).k(), RdpCode::kMaxDataChunks);
  EXPECT_EQ(RdpCode(65).k(), RdpCode::kMaxDataChunks);
  EXPECT_EQ(RdpCode(1 << 20).stripe_width(), 64);
  EXPECT_EQ(RdpCode(-5).k(), RdpCode::kMinDataChunks);
  EXPECT_EQ(RdpCode(62).p(), 67);  // smallest prime >= 63
}

TEST(RdpCode, PaddedChunkSizeIsBlockMultiple) {
  const RdpCode code(3);  // p = 5, so 4 blocks per chunk
  EXPECT_EQ(code.padded_chunk_size(0) % 4, 0u);
  EXPECT_GE(code.padded_chunk_size(1), 1u);
  EXPECT_EQ(code.padded_chunk_size(17) % 4, 0u);
  EXPECT_GE(code.padded_chunk_size(17), 17u);
}

TEST(RdpCode, AllSingleAndDoubleErasuresRoundTrip) {
  for (const int k : {2, 3, 4, 5, 7}) {
    const RdpCode code(k);
    const auto original = random_stripe(code, 61, 1000 + static_cast<std::uint64_t>(k));
    const int width = code.stripe_width();
    for (int a = 0; a < width; ++a) {
      for (int b = a; b < width; ++b) {
        auto damaged = original;
        damaged[static_cast<std::size_t>(a)].clear();
        damaged[static_cast<std::size_t>(b)].clear();  // a == b: single erasure
        ASSERT_TRUE(code.reconstruct(&damaged))
            << "k=" << k << " erased " << a << "," << b;
        EXPECT_EQ(damaged, original) << "k=" << k << " erased " << a << "," << b;
      }
    }
  }
}

TEST(RdpCode, PrimeBoundaryWidthsRoundTrip) {
  // The RDP geometry has two regimes: k + 1 already prime (no ghost
  // columns) and p > k + 1 (the code runs over imaginary zero columns).
  // Repair reconstructs in both; exercise every 2-erasure pair at each
  // boundary with a chunk size that is not a block multiple.
  for (const int k : {2, 4, 6}) {
    ASSERT_EQ(RdpCode(k).p(), k + 1) << "k=" << k;
  }
  for (const int k : {3, 5, 7}) {
    ASSERT_GT(RdpCode(k).p(), k + 1) << "k=" << k;
  }
  for (const int k : {2, 3, 4, 5, 6, 7}) {
    const RdpCode code(k);
    const auto original = random_stripe(code, 113, 4200 + static_cast<std::uint64_t>(k));
    const int width = code.stripe_width();
    for (int a = 0; a < width; ++a) {
      for (int b = a + 1; b < width; ++b) {
        auto damaged = original;
        damaged[static_cast<std::size_t>(a)].clear();
        damaged[static_cast<std::size_t>(b)].clear();
        ASSERT_TRUE(code.reconstruct(&damaged))
            << "k=" << k << " erased " << a << "," << b;
        EXPECT_EQ(damaged, original) << "k=" << k << " erased " << a << "," << b;
      }
    }
  }
}

TEST(RdpCode, ReconstructThenReencodeIsBitIdentical) {
  // The repair path's core guarantee: a chunk rebuilt by equation peeling
  // then re-encoded into fresh parity is indistinguishable from the
  // original encode — a healed stripe IS the stripe, not an approximation.
  for (const int k : {2, 3, 4, 6, 7}) {
    const RdpCode code(k);
    const auto original = random_stripe(code, 97, 7700 + static_cast<std::uint64_t>(k));
    const int width = code.stripe_width();
    for (int a = 0; a < width; ++a) {
      for (int b = a + 1; b < width; ++b) {
        auto damaged = original;
        damaged[static_cast<std::size_t>(a)].clear();
        damaged[static_cast<std::size_t>(b)].clear();
        ASSERT_TRUE(code.reconstruct(&damaged));
        std::vector<std::vector<std::uint8_t>> data(damaged.begin(),
                                                    damaged.begin() + code.k());
        std::vector<std::uint8_t> row;
        std::vector<std::uint8_t> diag;
        code.encode(data, &row, &diag);
        EXPECT_EQ(row, original[static_cast<std::size_t>(code.k())])
            << "k=" << k << " erased " << a << "," << b;
        EXPECT_EQ(diag, original[static_cast<std::size_t>(code.k() + 1)])
            << "k=" << k << " erased " << a << "," << b;
      }
    }
  }
}

TEST(RdpCode, TripleErasureIsRejected) {
  const RdpCode code(3);
  auto chunks = random_stripe(code, 32, 7);
  chunks[0].clear();
  chunks[2].clear();
  chunks[4].clear();
  EXPECT_FALSE(code.reconstruct(&chunks));
}

TEST(RdpCode, MismatchedChunkSizesAreRejected) {
  const RdpCode code(3);
  auto chunks = random_stripe(code, 32, 8);
  chunks[1].resize(chunks[1].size() + 4);
  chunks[0].clear();
  EXPECT_FALSE(code.reconstruct(&chunks));
}

TEST(RdpCode, ParityActuallyDetectsCorruption) {
  // Flip one data byte and re-encode: both parities must change (the row
  // always, the diagonal for any block not on the missing diagonal).
  const RdpCode code(3);
  const auto stripe = random_stripe(code, 40, 9);
  std::vector<std::vector<std::uint8_t>> data(stripe.begin(), stripe.begin() + code.k());
  data[0][0] ^= 0xff;
  std::vector<std::uint8_t> row;
  std::vector<std::uint8_t> diag;
  code.encode(data, &row, &diag);
  EXPECT_NE(row, stripe[static_cast<std::size_t>(code.k())]);
}

}  // namespace
}  // namespace adc::store
