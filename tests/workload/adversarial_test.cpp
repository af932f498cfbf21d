#include "workload/adversarial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "hash/carp.h"
#include "hash/consistent_hash.h"
#include "hash/rendezvous.h"

namespace adc::workload {
namespace {

// --- hash flood -----------------------------------------------------------

TEST(HashFlood, MinedKeysAllOwnedByVictimUnderEveryScheme) {
  for (const FloodScheme scheme :
       {FloodScheme::kCarp, FloodScheme::kRing, FloodScheme::kRendezvous}) {
    for (int victim = 0; victim < 5; ++victim) {
      HashFloodConfig config;
      config.scheme = scheme;
      config.proxies = 5;
      config.victim = victim;
      config.flood_keys = 64;
      const std::vector<ObjectId> keys = mine_colliding_keys(config);
      ASSERT_EQ(keys.size(), 64u) << flood_scheme_name(scheme);
      for (const ObjectId key : keys) {
        EXPECT_EQ(flood_owner_of(scheme, config.proxies, key), victim)
            << flood_scheme_name(scheme) << " key " << key;
      }
    }
  }
}

// The oracle must agree with src/hash directly: same member names
// ("proxy[i]"), same node ids, same owner — otherwise mined placements
// would not transfer to driver::run_experiment or the adcd daemon.
TEST(HashFlood, OracleMatchesRealCarpArray) {
  std::vector<hash::CarpArray::Member> members;
  for (int i = 0; i < 5; ++i) {
    members.push_back({"proxy[" + std::to_string(i) + "]", static_cast<NodeId>(i), 1.0});
  }
  const hash::CarpArray carp(std::move(members));

  HashFloodConfig config;
  config.scheme = FloodScheme::kCarp;
  config.flood_keys = 128;
  config.victim = 2;
  for (const ObjectId key : mine_colliding_keys(config)) {
    EXPECT_EQ(carp.owner(key), static_cast<NodeId>(2));
  }
}

TEST(HashFlood, OracleMatchesRealRingAndRendezvous) {
  hash::ConsistentHashRing ring;
  hash::RendezvousHash hrw;
  for (int i = 0; i < 5; ++i) {
    const std::string name = "proxy[" + std::to_string(i) + "]";
    ring.add_member(static_cast<NodeId>(i), name);
    hrw.add_member(static_cast<NodeId>(i), name);
  }
  for (ObjectId object = kFloodKeyBase; object < kFloodKeyBase + 500; ++object) {
    EXPECT_EQ(flood_owner_of(FloodScheme::kRing, 5, object), static_cast<int>(ring.owner(object)));
    EXPECT_EQ(flood_owner_of(FloodScheme::kRendezvous, 5, object),
              static_cast<int>(hrw.owner(object)));
  }
}

TEST(HashFlood, MiningIsDeterministicAndSeedIndependent) {
  HashFloodConfig a;
  HashFloodConfig b;
  b.seed = a.seed + 99;  // mining must not depend on the trace seed
  a.flood_keys = b.flood_keys = 32;
  EXPECT_EQ(mine_colliding_keys(a), mine_colliding_keys(b));
}

TEST(HashFlood, TraceMixesFloodAndBenignAtConfiguredFraction) {
  HashFloodConfig config;
  config.requests = 50'000;
  config.flood_fraction = 0.8;
  config.flood_keys = 16;
  const std::unordered_set<ObjectId> flood_set = [&] {
    const auto keys = mine_colliding_keys(config);
    return std::unordered_set<ObjectId>(keys.begin(), keys.end());
  }();

  const Trace trace = generate_hash_flood_trace(config);
  ASSERT_EQ(trace.size(), 50'000u);
  std::uint64_t flood_requests = 0;
  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    const bool is_flood = trace[i] >= kFloodKeyBase;
    if (is_flood) {
      ++flood_requests;
      EXPECT_TRUE(flood_set.count(trace[i])) << "unmined flood id " << trace[i];
    }
  }
  const double fraction =
      static_cast<double>(flood_requests) / static_cast<double>(trace.size());
  EXPECT_NEAR(fraction, 0.8, 0.02);
}

TEST(HashFlood, TraceIsDeterministic) {
  const HashFloodConfig config;
  const Trace a = generate_hash_flood_trace(config);
  const Trace b = generate_hash_flood_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::uint64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// --- flash crowd ----------------------------------------------------------

TEST(FlashCrowd, ColdBeforeRampPeakShareAfter) {
  FlashCrowdConfig config;
  config.requests = 100'000;
  config.ramp_begin = 0.4;
  config.ramp_window = 0.1;
  config.peak_fraction = 0.3;
  const Trace trace = generate_flash_crowd_trace(config);
  ASSERT_EQ(trace.size(), 100'000u);

  const auto crowd_count = [&](std::uint64_t begin, std::uint64_t end) {
    std::uint64_t crowd = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      if (trace[i] >= kCrowdObjectBase) ++crowd;
    }
    return crowd;
  };
  // Stone cold before the ramp begins.
  EXPECT_EQ(crowd_count(0, 40'000), 0u);
  // Sustained at ~peak_fraction after the ramp completes.
  const double post_share = static_cast<double>(crowd_count(50'000, 100'000)) / 50'000.0;
  EXPECT_NEAR(post_share, 0.3, 0.02);
  // The ramp itself averages about half the peak.
  const double ramp_share = static_cast<double>(crowd_count(40'000, 50'000)) / 10'000.0;
  EXPECT_NEAR(ramp_share, 0.15, 0.03);
}

TEST(FlashCrowd, CrowdObjectsComeFromTheReservedRange) {
  FlashCrowdConfig config;
  config.requests = 20'000;
  config.crowd_objects = 4;
  const Trace trace = generate_flash_crowd_trace(config);
  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    if (trace[i] >= kCrowdObjectBase) {
      EXPECT_LT(trace[i], kCrowdObjectBase + 4);
    }
  }
}

TEST(FlashCrowd, TraceIsDeterministic) {
  const FlashCrowdConfig config;
  const Trace a = generate_flash_crowd_trace(config);
  const Trace b = generate_flash_crowd_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::uint64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// --- diurnal swing --------------------------------------------------------

TEST(Diurnal, TrafficRotatesBetweenPopulations) {
  DiurnalConfig config;
  config.requests = 100'000;
  config.populations = 2;
  config.cycles = 1.0;  // population 0 peaks at both ends, population 1 mid-trace
  config.floor_weight = 0.05;
  const Trace trace = generate_diurnal_trace(config);
  ASSERT_EQ(trace.size(), 100'000u);

  // Early window: population 0 dominates; mid-trace the roles flip.
  const auto early = diurnal_population_counts(config, trace, 0, 10'000);
  const auto mid = diurnal_population_counts(config, trace, 45'000, 55'000);
  ASSERT_EQ(early.size(), 3u);
  EXPECT_EQ(early.back(), 0u) << "ids outside every population band";
  EXPECT_GT(early[0], 4 * early[1]);
  EXPECT_GT(mid[1], 4 * mid[0]);
}

TEST(Diurnal, FloorKeepsOffPeakPopulationsWarm) {
  DiurnalConfig config;
  config.requests = 50'000;
  config.populations = 2;
  config.cycles = 1.0;
  config.floor_weight = 0.2;
  const Trace trace = generate_diurnal_trace(config);
  const auto early = diurnal_population_counts(config, trace, 0, 10'000);
  EXPECT_GT(early[1], 0u);  // off-peak but never silent
}

TEST(Diurnal, TraceIsDeterministic) {
  const DiurnalConfig config;
  const Trace a = generate_diurnal_trace(config);
  const Trace b = generate_diurnal_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::uint64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// --- parsing --------------------------------------------------------------

std::optional<FloodScheme> named(std::string_view name) {
  for (const auto& [known, scheme] : flood_scheme_names()) {
    if (known == name) return scheme;
  }
  return std::nullopt;
}

TEST(FloodScheme, NamesRoundTrip) {
  for (const FloodScheme scheme :
       {FloodScheme::kCarp, FloodScheme::kRing, FloodScheme::kRendezvous}) {
    const auto parsed = named(flood_scheme_name(scheme));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, scheme);
  }
  EXPECT_EQ(flood_scheme_name(FloodScheme::kCarp), "carp");
  EXPECT_EQ(flood_scheme_name(FloodScheme::kRing), "ring");
  EXPECT_EQ(flood_scheme_name(FloodScheme::kRendezvous), "rendezvous");
  EXPECT_EQ(named("hrw"), FloodScheme::kRendezvous);
  EXPECT_EQ(named("consistent"), FloodScheme::kRing);
  EXPECT_FALSE(named("md5").has_value());
}

}  // namespace
}  // namespace adc::workload
