// Deterministic pseudo-random number generation.
//
// Every stochastic choice in the reproduction (random forwarding targets,
// workload sampling, latency jitter) flows through Rng so that a fixed seed
// yields a bit-identical simulation — a property the test suite asserts.
// The engine is xoshiro256**, seeded via SplitMix64, both implemented here
// so results do not depend on standard-library distribution internals.
#pragma once

#include <cstdint>
#include <vector>

namespace adc::util {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with explicit, portable sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  /// Raw 64 random bits (also satisfies UniformRandomBitGenerator).
  std::uint64_t next() noexcept;
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Uniform integer in [0, bound); bound must be > 0.  Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponentially distributed double with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Uniformly selects an index into a non-empty container-sized range.
  std::size_t index(std::size_t size) noexcept { return static_cast<std::size_t>(below(size)); }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
};

/// Samples Zipf(alpha) ranks in [1, n] by inverting the generalized harmonic
/// CDF over precomputed partial sums.  Exact (no rejection approximation),
/// deterministic, and O(1) expected per sample: a guide table indexed by
/// floor(u * n) brackets the rank, and a binary search inside the bracket
/// (usually one or two entries) finds the first CDF value >= u.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  std::size_t n() const noexcept { return n_; }
  double alpha() const noexcept { return alpha_; }

  /// Rank in [1, n]; rank 1 is the most popular.  Draws one uniform().
  std::size_t sample(Rng& rng) const noexcept { return rank_of(rng.uniform()); }

  /// The rank a uniform draw `u` in [0, 1) maps to: the smallest rank
  /// whose CDF is >= u.
  std::size_t rank_of(double u) const noexcept;

  /// P(rank <= `rank`) for rank in [1, n] (for tests).
  double cdf(std::size_t rank) const noexcept { return cdf_[rank - 1]; }

  /// Probability mass of a rank (for tests).
  double pmf(std::size_t rank) const noexcept;

 private:
  std::size_t n_;
  double alpha_;
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k+1)
  // guide_[j] = first k with floor(cdf_[k] * n) >= j, for j in [0, n].
  // The product is rounded like u * n in rank_of, and rounding is
  // monotone, so every k below guide_[floor(u * n)] has cdf_[k] < u and
  // guide_[floor(u * n) + 1] has cdf_ >= u: the answer lies between them.
  std::vector<std::uint32_t> guide_;
};

}  // namespace adc::util
