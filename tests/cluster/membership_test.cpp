// Live-cluster membership tests (ctest label: tier2-net).
//
// churn_test.cpp proves the *reactive* resilience story: traffic hits a
// dead peer, errors surface, backoff and degradation absorb them.  These
// tests prove the *proactive* one — the SWIM detector notices a killed
// daemon with NO traffic in flight, the survivors bump their membership
// epoch, and the consequences land per scheme: a CARP member's URL share
// is reassigned (owner map rebuilt, reshuffle fraction measured, and not
// one request routed to the dead member afterwards), and an ADC member's
// mapping entries are purged so lookups stop chasing a silent ghost.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/adc_config.h"
#include "membership/member_agent.h"
#include "net/socket.h"
#include "proxy/hashing_proxy.h"
#include "server/daemon.h"
#include "server/loadgen.h"
#include "workload/polygraph.h"
#include "workload/trace.h"

namespace adc {
namespace {

constexpr int kProxies = 3;
constexpr NodeId kOriginId = 3;
constexpr NodeId kClientId = 4;
constexpr NodeId kVictim = 1;

/// Live-scale-but-fast SWIM timings: 100ms pings, 300ms suspicion.  A
/// death is confirmed in well under a second of wall clock; the daemon
/// poll loop runs at 100ms when the detector is on, which is exactly the
/// ping cadence.
membership::MembershipConfig fast_membership(std::uint64_t seed) {
  membership::MembershipConfig config;
  config.swim.enabled = true;
  config.swim.ping_interval = 100'000;
  config.swim.ack_timeout = 40'000;
  config.swim.indirect_timeout = 40'000;
  config.swim.suspect_timeout = 300'000;
  config.swim.dead_probe_interval = 600'000;
  config.swim.seed = seed;
  config.repair.interval = 200'000;
  return config;
}

/// Minimal killable cluster — like churn_test's harness but exposing the
/// daemon objects so tests can poll membership_epoch() (atomic, designed
/// for exactly this) and read detector/agent stats after shutdown.
class MemberCluster {
 public:
  explicit MemberCluster(std::vector<server::DaemonConfig> configs)
      : configs_(std::move(configs)) {
    daemons_.resize(configs_.size());
    threads_.resize(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      configs_[i].listen = net::Endpoint{"127.0.0.1", 0};
      daemons_[i] = std::make_unique<server::NodeDaemon>(configs_[i]);
      std::string error;
      const std::uint16_t port = daemons_[i]->bind(&error);
      EXPECT_NE(port, 0) << error;
      configs_[i].listen.port = port;
      endpoints_[configs_[i].node_id] = net::Endpoint{"127.0.0.1", port};
    }
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      daemons_[i]->set_peers(endpoints_);
      threads_[i] = std::thread([daemon = daemons_[i].get()]() { daemon->run(); });
    }
  }

  ~MemberCluster() { shutdown(); }

  void kill(std::size_t i) {
    daemons_[i]->stop();
    threads_[i].join();
    daemons_[i].reset();
  }

  void shutdown() {
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      if (daemons_[i] == nullptr) continue;
      daemons_[i]->stop();
      if (threads_[i].joinable()) threads_[i].join();
    }
  }

  server::NodeDaemon& daemon(std::size_t i) { return *daemons_[i]; }

  /// Blocks until every surviving proxy daemon reports an epoch >= `want`,
  /// or `deadline` wall time passes.  Pure polling on an atomic — no
  /// traffic is generated, which is the point of the silent-peer tests.
  bool await_epoch(std::uint64_t want, std::chrono::seconds deadline) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      bool all = true;
      for (const auto& daemon : daemons_) {
        if (daemon == nullptr || daemon->detector() == nullptr) continue;
        if (daemon->membership_epoch() < want) all = false;
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  std::map<NodeId, net::Endpoint> proxy_endpoints(bool include_victim) const {
    std::map<NodeId, net::Endpoint> out;
    for (const auto& [id, endpoint] : endpoints_) {
      if (id == kOriginId) continue;
      if (!include_victim && id == kVictim) continue;
      out[id] = endpoint;
    }
    return out;
  }

 private:
  std::vector<server::DaemonConfig> configs_;
  std::vector<std::unique_ptr<server::NodeDaemon>> daemons_;
  std::vector<std::thread> threads_;
  std::map<NodeId, net::Endpoint> endpoints_;
};

std::vector<server::DaemonConfig> member_configs(server::DaemonRole proxy_role) {
  std::vector<server::DaemonConfig> configs;
  for (NodeId id = 0; id <= kOriginId; ++id) {
    server::DaemonConfig config;
    config.node_id = id;
    config.role = id == kOriginId ? server::DaemonRole::kOrigin : proxy_role;
    config.proxy_ids = {0, 1, 2};
    config.origin_id = kOriginId;
    config.adc.single_table_size = 1000;
    config.adc.multiple_table_size = 1000;
    config.adc.caching_table_size = 500;
    config.carp_cache_capacity = 500;
    config.seed = 1;
    config.membership = fast_membership(/*seed=*/7);
    configs.push_back(std::move(config));
  }
  return configs;
}

server::LoadGenConfig loadgen_config(std::map<NodeId, net::Endpoint> proxies) {
  server::LoadGenConfig lg;
  lg.client_id = kClientId;
  lg.proxies = std::move(proxies);
  lg.concurrency = 4;
  lg.entry = server::EntryChoice::kRoundRobin;
  lg.idle_timeout_ms = 30000;
  lg.request_timeout_ms = 2000;
  lg.health.max_backoff_us = 250'000;
  return lg;
}

std::vector<ObjectId> test_objects() {
  auto poly = workload::PolygraphConfig::scaled(0.002);  // ~8k requests
  poly.seed = 42;
  return workload::generate_polygraph_trace(poly).requests();
}

TEST(Membership, CarpUrlShareIsReassignedAfterSilentMemberDeath) {
  const std::vector<ObjectId> objects = test_objects();
  const std::size_t half = objects.size() / 2;

  MemberCluster cluster(member_configs(server::DaemonRole::kCarpProxy));

  // Warm phase against all three members, so the victim genuinely owned a
  // share of the URL space.
  {
    server::LoadGenerator warmup(loadgen_config(cluster.proxy_endpoints(true)));
    std::string error;
    ASSERT_TRUE(warmup.connect(&error)) << error;
    const auto warm = warmup.run({objects.begin(), objects.begin() + half});
    ASSERT_FALSE(warm.timed_out);
    EXPECT_EQ(warm.completed + warm.failed, static_cast<std::uint64_t>(half));
  }

  // Kill the victim and let SWIM confirm the death with zero traffic in
  // flight — the probes themselves are the only evidence.
  cluster.kill(kVictim);
  ASSERT_TRUE(cluster.await_epoch(1, std::chrono::seconds(10)))
      << "survivors never confirmed the silent death";

  // Snapshot the survivors' degraded-fetch counters: a request routed to
  // the dead member after the epoch bump would be rerouted to the origin
  // and counted here, so a zero delta proves no request targeted it.
  std::uint64_t degraded_before = 0;
  for (const std::size_t i : {0u, 2u}) {
    degraded_before += cluster.daemon(i).fault_stats().degraded_fetches;
  }

  server::LoadGenerator loadgen(loadgen_config(cluster.proxy_endpoints(false)));
  std::string error;
  ASSERT_TRUE(loadgen.connect(&error)) << error;
  const auto measured = loadgen.run({objects.begin() + half, objects.end()});
  ASSERT_FALSE(measured.timed_out);
  EXPECT_EQ(measured.completed + measured.failed,
            static_cast<std::uint64_t>(objects.size() - half));
  EXPECT_GT(measured.hit_rate(), 0.0);

  std::uint64_t degraded_after = 0;
  for (const std::size_t i : {0u, 2u}) {
    degraded_after += cluster.daemon(i).fault_stats().degraded_fetches;
  }
  EXPECT_EQ(degraded_after, degraded_before)
      << "a request was still routed toward the dead member after the epoch bump";

  cluster.shutdown();

  // Both survivors rebuilt their owner map and measured the reshuffle:
  // with 1 of 3 members gone, roughly a third of the sampled URL space
  // changed owner.
  for (const std::size_t i : {0u, 2u}) {
    const auto& proxy = static_cast<const proxy::HashingProxy&>(cluster.daemon(i).hosted());
    EXPECT_GE(proxy.stats().membership_epoch, 1u) << "daemon " << i;
    EXPECT_GT(proxy.stats().max_reshuffle_fraction, 0.1) << "daemon " << i;
    EXPECT_LT(proxy.stats().max_reshuffle_fraction, 0.9) << "daemon " << i;
    ASSERT_NE(cluster.daemon(i).detector(), nullptr);
    EXPECT_EQ(cluster.daemon(i).detector()->state(kVictim), membership::PeerState::kDead);
    EXPECT_GE(cluster.daemon(i).detector()->stats().deaths, 1u);
  }
}

TEST(Membership, AdcSilentMemberDeathPurgesItsMappingEntries) {
  const std::vector<ObjectId> objects = test_objects();
  const std::size_t half = objects.size() / 2;

  MemberCluster cluster(member_configs(server::DaemonRole::kAdcProxy));

  // Warm phase across all members: the survivors' mapping tables learn
  // plenty of locations naming the victim.
  {
    server::LoadGenerator warmup(loadgen_config(cluster.proxy_endpoints(true)));
    std::string error;
    ASSERT_TRUE(warmup.connect(&error)) << error;
    const auto warm = warmup.run({objects.begin(), objects.begin() + half});
    ASSERT_FALSE(warm.timed_out);
    EXPECT_EQ(warm.completed + warm.failed, static_cast<std::uint64_t>(half));
  }

  cluster.kill(kVictim);
  ASSERT_TRUE(cluster.await_epoch(1, std::chrono::seconds(10)))
      << "survivors never confirmed the silent death";

  // The detector's death callback purged the entries naming the victim —
  // without any request having tripped over the dead peer first.
  std::uint64_t invalidated = 0;
  for (const std::size_t i : {0u, 2u}) {
    invalidated += cluster.daemon(i).fault_stats().entries_invalidated;
  }
  EXPECT_GT(invalidated, 0u);

  // And the cluster still answers: post-death traffic against the
  // survivors completes with a real hit rate.
  server::LoadGenerator loadgen(loadgen_config(cluster.proxy_endpoints(false)));
  std::string error;
  ASSERT_TRUE(loadgen.connect(&error)) << error;
  const auto measured = loadgen.run({objects.begin() + half, objects.end()});
  ASSERT_FALSE(measured.timed_out);
  EXPECT_EQ(measured.completed + measured.failed,
            static_cast<std::uint64_t>(objects.size() - half));
  EXPECT_GT(measured.hit_rate(), 0.0);

  cluster.shutdown();
  for (const std::size_t i : {0u, 2u}) {
    ASSERT_NE(cluster.daemon(i).detector(), nullptr);
    EXPECT_EQ(cluster.daemon(i).detector()->state(kVictim), membership::PeerState::kDead);
  }
}

}  // namespace
}  // namespace adc
