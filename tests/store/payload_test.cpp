// PayloadStore tests: deterministic heavy-tailed sizes, regenerable
// pattern slices, chunk/parity consistency with the RDP code, and the
// body/checksum verification the live daemon runs on every frame.
#include "store/payload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

namespace adc::store {
namespace {

PayloadConfig test_config() {
  PayloadConfig config;
  config.enabled = true;
  config.seed = 97;
  return config;
}

TEST(PayloadStore, SizesAreDeterministicAcrossInstances) {
  const PayloadStore a(test_config());
  const PayloadStore b(test_config());
  for (ObjectId object = 1; object <= 500; ++object) {
    EXPECT_EQ(a.size_of(object), b.size_of(object)) << "object " << object;
  }
}

TEST(PayloadStore, ConcurrentQueriesOnOneSharedStoreAgree) {
  // Every query is a pure function of (object, seed) over immutable state,
  // so threads may share one store (the sanitizer legs check for races).
  const PayloadStore shared(test_config());
  const PayloadStore fresh(test_config());
  constexpr ObjectId kObjects = 4000;
  std::vector<std::uint64_t> expected(kObjects);
  for (ObjectId object = 0; object < kObjects; ++object) expected[object] = fresh.size_of(object);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &fresh, &expected, &mismatches, t] {
      // Each thread walks the objects from a different start so the same
      // ids are queried concurrently from several threads.
      for (ObjectId i = 0; i < kObjects; ++i) {
        const ObjectId object = (i + static_cast<ObjectId>(t) * 997) % kObjects;
        if (shared.size_of(object) != expected[object] ||
            shared.chunk_size(object) != fresh.chunk_size(object)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

TEST(PayloadStore, ConfigReflectsTheDataChunkClamp) {
  PayloadConfig config = test_config();
  config.erasure.data_chunks = 200;
  const PayloadStore wide(config);
  EXPECT_EQ(wide.code().k(), RdpCode::kMaxDataChunks);
  EXPECT_EQ(wide.config().erasure.data_chunks, RdpCode::kMaxDataChunks);
  config.erasure.data_chunks = 1;
  EXPECT_EQ(PayloadStore(config).config().erasure.data_chunks, RdpCode::kMinDataChunks);
}

TEST(PayloadStore, SizesRespectTheClamp) {
  PayloadConfig config = test_config();
  config.min_bytes = 1000;
  config.max_bytes = 2000;
  const PayloadStore store(config);
  for (ObjectId object = 1; object <= 2000; ++object) {
    const std::uint64_t size = store.size_of(object);
    EXPECT_GE(size, 1000u);
    EXPECT_LE(size, 2000u);
  }
}

TEST(PayloadStore, DifferentSeedsGiveDifferentUniverses) {
  PayloadConfig other = test_config();
  other.seed = 98;
  const PayloadStore a(test_config());
  const PayloadStore b(other);
  int differing = 0;
  for (ObjectId object = 1; object <= 200; ++object) {
    if (a.size_of(object) != b.size_of(object)) ++differing;
  }
  EXPECT_GT(differing, 150);  // almost every size should move with the seed
}

TEST(PayloadStore, DistributionIsHeavyTailed) {
  // Mean well above median is the signature that makes byte hit rate
  // diverge from request hit rate.
  const PayloadStore store(test_config());
  std::vector<std::uint64_t> sizes;
  for (ObjectId object = 1; object <= 5000; ++object) sizes.push_back(store.size_of(object));
  std::sort(sizes.begin(), sizes.end());
  const std::uint64_t median = sizes[sizes.size() / 2];
  std::uint64_t total = 0;
  for (const std::uint64_t size : sizes) total += size;
  const double mean = static_cast<double>(total) / static_cast<double>(sizes.size());
  EXPECT_GT(mean, static_cast<double>(median) * 1.3);
  // And the clamp must actually bite somewhere in a 5000-object universe.
  EXPECT_EQ(sizes.back(), store.config().max_bytes);
}

TEST(PayloadStore, BodySliceIsConsistentWithChunkSlices) {
  const PayloadStore store(test_config());
  const ObjectId object = 4242;
  const std::uint64_t chunk = store.chunk_size(object);
  ASSERT_GT(chunk, 0u);

  std::vector<std::uint8_t> body(static_cast<std::size_t>(std::min<std::uint64_t>(
      store.size_of(object), chunk)));
  store.fill_body(object, body.data(), body.size());

  // Data chunk 0 is the first `chunk` pattern bytes — the body prefix.
  std::vector<std::uint8_t> chunk0(static_cast<std::size_t>(chunk));
  const std::size_t got = store.fill_chunk(object, 0, chunk0.data(), chunk0.size());
  ASSERT_GE(got, body.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), chunk0.begin()));
}

TEST(PayloadStore, ChunksReconstructTheStripe) {
  const PayloadStore store(test_config());
  const RdpCode& code = store.code();
  const ObjectId object = 777;
  const std::uint64_t chunk = store.chunk_size(object);
  const std::size_t padded = code.padded_chunk_size(static_cast<std::size_t>(chunk));

  std::vector<std::vector<std::uint8_t>> chunks(
      static_cast<std::size_t>(code.stripe_width()));
  for (int i = 0; i < code.stripe_width(); ++i) {
    auto& out = chunks[static_cast<std::size_t>(i)];
    out.assign(padded, 0);
    store.fill_chunk(object, i, out.data(), out.size());
  }
  const auto original = chunks;

  // Losing any data chunk plus one parity still reconstructs byte-exactly:
  // fill_chunk serves genuine RDP parity, not a placeholder.
  chunks[1].clear();
  chunks[static_cast<std::size_t>(code.k())].clear();
  ASSERT_TRUE(code.reconstruct(&chunks));
  EXPECT_EQ(chunks, original);
}

TEST(PayloadStore, VerifyBodyAcceptsTheGeneratedSample) {
  const PayloadStore store(test_config());
  for (ObjectId object = 10; object <= 20; ++object) {
    const std::uint64_t size = store.size_of(object);
    std::vector<std::uint8_t> body(static_cast<std::size_t>(
        std::min<std::uint64_t>(size, kMaxBodySample)));
    store.fill_body(object, body.data(), body.size());
    const std::uint64_t sum = store.checksum(object, size, body.data(), body.size());
    EXPECT_TRUE(store.verify_body(object, size, body.data(), body.size(), sum));
  }
}

TEST(PayloadStore, VerifyBodyRejectsTampering) {
  const PayloadStore store(test_config());
  const ObjectId object = 31;
  const std::uint64_t size = store.size_of(object);
  std::vector<std::uint8_t> body(static_cast<std::size_t>(
      std::min<std::uint64_t>(size, kMaxBodySample)));
  store.fill_body(object, body.data(), body.size());
  const std::uint64_t sum = store.checksum(object, size, body.data(), body.size());

  // Flipped byte.
  body[0] ^= 1;
  EXPECT_FALSE(store.verify_body(object, size, body.data(), body.size(), sum));
  body[0] ^= 1;
  // Wrong claimed size.
  EXPECT_FALSE(store.verify_body(object, size + 1, body.data(), body.size(), sum));
  // Wrong checksum.
  EXPECT_FALSE(store.verify_body(object, size, body.data(), body.size(), sum ^ 1));
  // Wrong object id.
  EXPECT_FALSE(store.verify_body(object + 1, size, body.data(), body.size(), sum));
  // Untouched sample still passes.
  EXPECT_TRUE(store.verify_body(object, size, body.data(), body.size(), sum));
}

TEST(PayloadStore, VerifyChunkAcceptsEveryIndexAndRejectsCrossTalk) {
  const PayloadStore store(test_config());
  const ObjectId object = 64;
  const std::uint64_t chunk = store.chunk_size(object);
  for (int index = 0; index < store.code().stripe_width(); ++index) {
    std::vector<std::uint8_t> body(static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk, kMaxBodySample)));
    store.fill_chunk(object, index, body.data(), body.size());
    const std::uint64_t sum = store.checksum(object, chunk, body.data(), body.size());
    EXPECT_TRUE(store.verify_chunk(object, index, chunk, body.data(), body.size(), sum));
    // A different chunk index must not verify against this sample (the
    // pattern slices differ; only a degenerate all-equal payload could
    // collide, and the heavy-tailed pattern never is).
    const int other = (index + 1) % store.code().stripe_width();
    EXPECT_FALSE(store.verify_chunk(object, other, chunk, body.data(), body.size(), sum));
  }
}

TEST(PayloadStore, ChunkSizeCoversTheObject) {
  const PayloadStore store(test_config());
  for (ObjectId object = 100; object < 130; ++object) {
    const std::uint64_t k = static_cast<std::uint64_t>(store.code().k());
    EXPECT_GE(store.chunk_size(object) * k, store.size_of(object));
    EXPECT_LT((store.chunk_size(object) - 1) * k, store.size_of(object));
  }
}

}  // namespace
}  // namespace adc::store
