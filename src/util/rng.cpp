#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace adc::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but keep the guard explicit.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span may wrap to 0 when [lo,hi] covers the whole int64 range.
  if (span == 0) return static_cast<std::int64_t>(next());
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) noexcept {
  assert(mean > 0.0);
  double u = uniform();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : n_(n), alpha_(alpha) {
  assert(n > 0 && n < UINT32_MAX);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), alpha);
    cdf_[k - 1] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against rounding in the final bucket
  const double scale = static_cast<double>(n);
  guide_.resize(n + 1);
  std::size_t k = 0;
  for (std::size_t j = 0; j <= n; ++j) {
    // cdf_.back() * n == n, so the scan stops by the last entry.
    while (static_cast<std::size_t>(cdf_[k] * scale) < j) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

std::size_t ZipfSampler::rank_of(double u) const noexcept {
  // u < 1, so u * n <= n even after rounding up.
  const auto j = static_cast<std::size_t>(u * static_cast<double>(n_));
  // First index in [guide_[j], guide_[j + 1]] whose cdf >= u.
  std::size_t lo = guide_[j];
  std::size_t hi = j < n_ ? guide_[j + 1] : n_ - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

double ZipfSampler::pmf(std::size_t rank) const noexcept {
  if (rank == 0 || rank > n_) return 0.0;
  const double prev = rank == 1 ? 0.0 : cdf_[rank - 2];
  return cdf_[rank - 1] - prev;
}

}  // namespace adc::util
