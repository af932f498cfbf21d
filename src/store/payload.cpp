#include "store/payload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/rng.h"

namespace adc::store {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Object sizes.  Lognormal body exp(N(kLogMean, kLogSigma)): Polygraph's
// "most objects are small" component, median ~4.9 KB.  With probability
// kTailProb the size comes instead from a Pareto(kTailAlpha) tail starting
// at the lognormal's ~84th percentile: the heavy tail that makes byte hit
// rate diverge from request hit rate.
constexpr double kLogMean = 8.5;
constexpr double kLogSigma = 1.2;
constexpr double kTailProb = 0.07;
constexpr double kTailAlpha = 1.3;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* bytes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix(std::uint64_t value) {
  std::uint64_t state = value;
  return util::splitmix64(state);
}

/// Writes `n` pattern bytes starting at pattern offset `from` for the
/// SplitMix64 stream keyed by `key`.  Byte j of the stream is byte (j % 8)
/// of the (j / 8)-th draw, so any aligned or unaligned slice is
/// regenerable without materializing the prefix.
void fill_pattern(std::uint64_t key, std::uint64_t from, std::uint8_t* out, std::size_t n) {
  std::uint64_t pos = from;
  std::size_t written = 0;
  while (written < n) {
    std::uint64_t state = key + (pos / 8) * kGolden;
    const std::uint64_t word = util::splitmix64(state);
    const std::size_t offset = static_cast<std::size_t>(pos % 8);
    const std::size_t take = std::min<std::size_t>(8 - offset, n - written);
    for (std::size_t b = 0; b < take; ++b) {
      out[written + b] = static_cast<std::uint8_t>(word >> (8 * (offset + b)));
    }
    written += take;
    pos += take;
  }
}

}  // namespace

PayloadStore::PayloadStore(const PayloadConfig& config)
    : config_(config), code_(config.erasure.data_chunks) {
  config_.erasure.data_chunks = code_.k();  // reflect the [2, 62] clamp
  if (config_.min_bytes == 0) config_.min_bytes = 1;
  if (config_.max_bytes < config_.min_bytes) config_.max_bytes = config_.min_bytes;
}

std::uint64_t PayloadStore::size_of(ObjectId object) const {
  // Three independent draws from a stream keyed by (object, seed); no
  // shared RNG is touched, so the store never perturbs protocol choices.
  std::uint64_t state = config_.seed ^ (object * kGolden);
  const std::uint64_t u_tail = util::splitmix64(state);
  const std::uint64_t u_a = util::splitmix64(state);
  const std::uint64_t u_b = util::splitmix64(state);
  const double inv = 1.0 / 18446744073709551616.0;  // 2^-64
  const double ua = (static_cast<double>(u_a) + 0.5) * inv;  // (0, 1)
  const double ub = (static_cast<double>(u_b) + 0.5) * inv;

  double size;
  if (static_cast<double>(u_tail) * inv < kTailProb) {
    // Pareto tail anchored at the lognormal's ~84th percentile.
    const double x_m = std::exp(kLogMean + kLogSigma);
    size = x_m * std::pow(1.0 - ua, -1.0 / kTailAlpha);
  } else {
    // Lognormal body via Box-Muller.
    const double z = std::sqrt(-2.0 * std::log(ua)) * std::cos(kTwoPi * ub);
    size = std::exp(kLogMean + kLogSigma * z);
  }
  const double clamped = std::min(static_cast<double>(config_.max_bytes),
                                  std::max(static_cast<double>(config_.min_bytes), size));
  return static_cast<std::uint64_t>(clamped);
}

std::uint64_t PayloadStore::chunk_size(ObjectId object) const {
  const std::uint64_t k = static_cast<std::uint64_t>(code_.k());
  return (size_of(object) + k - 1) / k;
}

std::size_t PayloadStore::fill_body(ObjectId object, std::uint8_t* out,
                                    std::size_t max_len) const {
  const std::uint64_t size = size_of(object);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(size, static_cast<std::uint64_t>(max_len)));
  fill_pattern(config_.seed ^ mix(object), 0, out, n);
  return n;
}

std::size_t PayloadStore::fill_chunk(ObjectId object, int index, std::uint8_t* out,
                                     std::size_t max_len) const {
  const std::uint64_t size = size_of(object);
  const std::uint64_t chunk = chunk_size(object);
  const std::uint64_t key = config_.seed ^ mix(object);
  const int k = code_.k();
  if (index < 0 || index >= code_.stripe_width() || chunk == 0) return 0;

  if (index < k) {
    // Data chunk: a slice of the pattern, zero-padded past the object end.
    const std::uint64_t from = static_cast<std::uint64_t>(index) * chunk;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk, static_cast<std::uint64_t>(max_len)));
    const std::uint64_t real =
        from >= size ? 0 : std::min<std::uint64_t>(size - from, want);
    fill_pattern(key, from, out, static_cast<std::size_t>(real));
    std::memset(out + real, 0, want - static_cast<std::size_t>(real));
    return want;
  }

  // Parity chunk: regenerate all data slices (padded to an encodable
  // length) and run the real RDP encode — the live path serves genuine
  // parity bytes, not a placeholder.
  const std::size_t padded = code_.padded_chunk_size(static_cast<std::size_t>(chunk));
  std::vector<std::vector<std::uint8_t>> data(
      static_cast<std::size_t>(k), std::vector<std::uint8_t>(padded, 0));
  for (int c = 0; c < k; ++c) {
    const std::uint64_t from = static_cast<std::uint64_t>(c) * chunk;
    const std::uint64_t real = from >= size ? 0 : std::min<std::uint64_t>(size - from, chunk);
    fill_pattern(key, from, data[static_cast<std::size_t>(c)].data(),
                 static_cast<std::size_t>(real));
  }
  std::vector<std::uint8_t> row;
  std::vector<std::uint8_t> diag;
  code_.encode(data, &row, &diag);
  const auto& parity = index == k ? row : diag;
  const std::size_t n = std::min(parity.size(), max_len);
  std::copy(parity.begin(), parity.begin() + static_cast<std::ptrdiff_t>(n), out);
  return n;
}

std::size_t PayloadStore::reconstruct_chunk(ObjectId object, int lost_index, std::uint8_t* out,
                                            std::size_t max_len) const {
  const int width = code_.stripe_width();
  const std::uint64_t chunk = chunk_size(object);
  if (lost_index < 0 || lost_index >= width || chunk == 0) return 0;
  const std::size_t padded = code_.padded_chunk_size(static_cast<std::size_t>(chunk));
  std::vector<std::vector<std::uint8_t>> chunks(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    if (i == lost_index) continue;  // the erasure being repaired
    auto& c = chunks[static_cast<std::size_t>(i)];
    c.assign(padded, 0);  // data chunks stay zero-padded past the object end
    fill_chunk(object, i, c.data(), c.size());
  }
  if (!code_.reconstruct(&chunks)) return 0;
  const auto& rebuilt = chunks[static_cast<std::size_t>(lost_index)];
  // Chunks are accounted (and sampled on the wire) at chunk_size bytes;
  // the padding past it is representation, not payload.
  const std::size_t n = std::min(
      max_len, std::min(rebuilt.size(), static_cast<std::size_t>(chunk)));
  std::copy(rebuilt.begin(), rebuilt.begin() + static_cast<std::ptrdiff_t>(n), out);
  return n;
}

std::uint64_t PayloadStore::checksum(ObjectId object, std::uint64_t payload_bytes,
                                     const std::uint8_t* body, std::size_t body_len) const {
  const std::uint64_t h = fnv1a(kFnvOffset, body, body_len);
  return h ^ mix(object ^ payload_bytes * kGolden ^ config_.seed);
}

bool PayloadStore::verify_body(ObjectId object, std::uint64_t payload_bytes,
                               const std::uint8_t* body, std::size_t body_len,
                               std::uint64_t claimed_checksum) const {
  if (payload_bytes != size_of(object)) return false;
  std::uint8_t expected[kMaxBodySample];
  const std::size_t want = fill_body(object, expected, std::min(body_len, kMaxBodySample));
  if (want != body_len) return false;
  if (std::memcmp(expected, body, body_len) != 0) return false;
  return checksum(object, payload_bytes, body, body_len) == claimed_checksum;
}

bool PayloadStore::verify_chunk(ObjectId object, int index, std::uint64_t payload_bytes,
                                const std::uint8_t* body, std::size_t body_len,
                                std::uint64_t claimed_checksum) const {
  if (payload_bytes != chunk_size(object)) return false;
  std::uint8_t expected[kMaxBodySample];
  const std::size_t want =
      fill_chunk(object, index, expected, std::min(body_len, kMaxBodySample));
  if (want < body_len) return false;
  if (std::memcmp(expected, body, body_len) != 0) return false;
  return checksum(object, payload_bytes, body, body_len) == claimed_checksum;
}

}  // namespace adc::store
