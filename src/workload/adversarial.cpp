#include "workload/adversarial.h"

#include <cassert>
#include <cmath>
#include <string>

#include "hash/carp.h"
#include "hash/consistent_hash.h"
#include "hash/rendezvous.h"

namespace adc::workload {
namespace {

/// Owner lookup closure over the scheme's real allocation structure.
/// Members are named/numbered exactly the way driver::run_experiment and
/// server::NodeDaemon build them, so mined placements transfer verbatim.
class OwnerOracle {
 public:
  OwnerOracle(FloodScheme scheme, int proxies) : scheme_(scheme) {
    assert(proxies >= 1);
    switch (scheme_) {
      case FloodScheme::kCarp: {
        std::vector<hash::CarpArray::Member> members;
        for (NodeId id = 0; id < proxies; ++id) members.push_back({hash::member_name(id), id, 1.0});
        carp_ = hash::CarpArray(std::move(members));
        break;
      }
      case FloodScheme::kRing:
        for (NodeId id = 0; id < proxies; ++id) ring_.add_member(id, hash::member_name(id));
        break;
      case FloodScheme::kRendezvous:
        for (NodeId id = 0; id < proxies; ++id) hrw_.add_member(id, hash::member_name(id));
        break;
    }
  }

  int owner(ObjectId object) const {
    switch (scheme_) {
      case FloodScheme::kCarp:
        return static_cast<int>(carp_.owner(object));
      case FloodScheme::kRing:
        return static_cast<int>(ring_.owner(object));
      case FloodScheme::kRendezvous:
        return static_cast<int>(hrw_.owner(object));
    }
    return 0;
  }

 private:
  FloodScheme scheme_;
  hash::CarpArray carp_;
  hash::ConsistentHashRing ring_;
  hash::RendezvousHash hrw_;
};

/// Benign background sampler shared by the flood and flash-crowd traces:
/// Zipf(kZipfAlpha) popularity over ids [1, universe].
class BenignStream {
 public:
  static constexpr double kZipfAlpha = 1.1;

  explicit BenignStream(std::uint64_t universe)
      : universe_(universe < 1 ? 1 : universe),
        zipf_(static_cast<std::size_t>(universe_), kZipfAlpha) {}

  ObjectId sample(util::Rng& rng) const {
    return static_cast<ObjectId>(zipf_.sample(rng));  // rank r -> object r
  }

 private:
  std::uint64_t universe_;
  util::ZipfSampler zipf_;
};

}  // namespace

const std::vector<std::pair<std::string, FloodScheme>>& flood_scheme_names() {
  static const std::vector<std::pair<std::string, FloodScheme>> names = {
      {"carp", FloodScheme::kCarp},
      {"ring", FloodScheme::kRing},
      {"consistent", FloodScheme::kRing},
      {"rendezvous", FloodScheme::kRendezvous},
      {"hrw", FloodScheme::kRendezvous},
  };
  return names;
}

std::string_view flood_scheme_name(FloodScheme scheme) noexcept {
  for (const auto& [name, known] : flood_scheme_names()) {
    if (known == scheme) return name;
  }
  return "carp";
}

int flood_owner_of(FloodScheme scheme, int proxies, ObjectId object) {
  return OwnerOracle(scheme, proxies).owner(object);
}

std::vector<ObjectId> mine_colliding_keys(const HashFloodConfig& config) {
  assert(config.victim >= 0 && config.victim < config.proxies);
  const OwnerOracle oracle(config.scheme, config.proxies);
  std::vector<ObjectId> keys;
  keys.reserve(static_cast<std::size_t>(config.flood_keys));
  // Linear scan: with n members ~1/n of candidates land on the victim, so
  // mining k keys inspects ~n*k ids — microseconds at any realistic size.
  for (ObjectId candidate = kFloodKeyBase; keys.size() < config.flood_keys; ++candidate) {
    if (oracle.owner(candidate) == config.victim) keys.push_back(candidate);
  }
  return keys;
}

Trace generate_hash_flood_trace(const HashFloodConfig& config) {
  const std::vector<ObjectId> flood = mine_colliding_keys(config);
  const BenignStream benign(config.benign_universe);
  util::Rng rng(config.seed);

  std::vector<ObjectId> requests;
  requests.reserve(static_cast<std::size_t>(config.requests));
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    if (rng.chance(config.flood_fraction)) {
      requests.push_back(flood[rng.index(flood.size())]);
    } else {
      requests.push_back(benign.sample(rng));
    }
  }
  const std::uint64_t size = requests.size();
  return Trace(std::move(requests), TracePhases{0, size});
}

Trace generate_flash_crowd_trace(const FlashCrowdConfig& config) {
  // Chance a benign request introduces a brand-new object instead of
  // re-requesting from the hot set.
  constexpr double kBenignNewFraction = 0.1;
  assert(config.crowd_objects >= 1);
  const BenignStream benign(config.benign_universe);
  util::Rng rng(config.seed);

  const double n = static_cast<double>(config.requests);
  const double ramp_begin = config.ramp_begin * n;
  const double ramp_end = ramp_begin + config.ramp_window * n;
  ObjectId next_new = static_cast<ObjectId>(config.benign_universe) + 1;

  std::vector<ObjectId> requests;
  requests.reserve(static_cast<std::size_t>(config.requests));
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    const double at = static_cast<double>(i);
    double crowd_share = 0.0;
    if (at >= ramp_end) {
      crowd_share = config.peak_fraction;
    } else if (at >= ramp_begin && ramp_end > ramp_begin) {
      crowd_share = config.peak_fraction * (at - ramp_begin) / (ramp_end - ramp_begin);
    }
    if (rng.chance(crowd_share)) {
      requests.push_back(kCrowdObjectBase + rng.below(config.crowd_objects));
    } else if (rng.chance(kBenignNewFraction)) {
      requests.push_back(next_new++);
    } else {
      requests.push_back(benign.sample(rng));
    }
  }
  const std::uint64_t size = requests.size();
  return Trace(std::move(requests), TracePhases{0, size});
}

namespace {

/// Ids in each diurnal population's band.
constexpr std::uint64_t kPopulationSize = 10'000;

/// Raised-cosine day weight of population `r` at trace position `frac`
/// (in [0,1]): peaks once per cycle, phase-shifted so populations take
/// turns; cos^2 keeps the swing smooth and strictly positive floors keep
/// off-peak members warm.
double diurnal_weight(const DiurnalConfig& config, std::uint64_t r, double frac) {
  constexpr double kPi = 3.14159265358979323846;
  const double phase = kPi * (config.cycles * frac -
                              static_cast<double>(r) / static_cast<double>(config.populations));
  const double c = std::cos(phase);
  return config.floor_weight + (1.0 - config.floor_weight) * c * c;
}

}  // namespace

Trace generate_diurnal_trace(const DiurnalConfig& config) {
  assert(config.populations >= 1);
  // Zipf exponent of each population's internal popularity.
  constexpr double kZipfAlpha = 1.1;
  const util::ZipfSampler zipf(static_cast<std::size_t>(kPopulationSize), kZipfAlpha);
  util::Rng rng(config.seed);

  std::vector<double> weights(static_cast<std::size_t>(config.populations));
  std::vector<ObjectId> requests;
  requests.reserve(static_cast<std::size_t>(config.requests));
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(config.requests);
    double total = 0.0;
    for (std::uint64_t r = 0; r < config.populations; ++r) {
      weights[static_cast<std::size_t>(r)] = diurnal_weight(config, r, frac);
      total += weights[static_cast<std::size_t>(r)];
    }
    double pick = rng.uniform() * total;
    std::uint64_t population = config.populations - 1;
    for (std::uint64_t r = 0; r < config.populations; ++r) {
      pick -= weights[static_cast<std::size_t>(r)];
      if (pick < 0.0) {
        population = r;
        break;
      }
    }
    const auto rank = static_cast<ObjectId>(zipf.sample(rng));  // [1, kPopulationSize]
    requests.push_back(population * kPopulationSize + rank);
  }
  const std::uint64_t size = requests.size();
  return Trace(std::move(requests), TracePhases{0, size});
}

std::vector<std::uint64_t> diurnal_population_counts(const DiurnalConfig& config,
                                                     const Trace& trace, std::uint64_t begin,
                                                     std::uint64_t end) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(config.populations) + 1, 0);
  if (end > trace.size()) end = trace.size();
  for (std::uint64_t i = begin; i < end; ++i) {
    const ObjectId object = trace[i];
    // Band r covers (r*size, (r+1)*size]; ids outside every band land in
    // the trailing slot.
    const std::uint64_t band = object == 0 ? config.populations : (object - 1) / kPopulationSize;
    if (band < config.populations) {
      ++counts[static_cast<std::size_t>(band)];
    } else {
      ++counts.back();
    }
  }
  return counts;
}

}  // namespace adc::workload
