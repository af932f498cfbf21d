// Live-cluster payload and erasure tests (ctest label: tier2-net).
//
// Two claims ride on the payload store once real sockets are involved.
// First, the byte ledger is not a simulation artifact: a live CARP replay
// (deterministic routing, one request in flight) must reproduce the
// simulator's byte counters transfer for transfer, with every body sample
// checksum-verified on receipt.  Second, the erasure tier's degraded
// reads survive contact with a real death: kill one daemon, let SWIM
// confirm it, and the dead member's previously-fetched objects are
// rebuilt from surviving stripe chunks — served as hits, not refetched
// from the origin.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/adc_config.h"
#include "driver/experiment.h"
#include "hash/carp.h"
#include "net/socket.h"
#include "proxy/hashing_proxy.h"
#include "server/daemon.h"
#include "server/loadgen.h"
#include "workload/polygraph.h"
#include "workload/trace.h"

namespace adc {
namespace {

constexpr int kProxies = 5;
constexpr NodeId kOriginId = 5;  // run_experiment layout: proxies [0,5), origin, client
constexpr NodeId kClientId = 6;
constexpr NodeId kVictim = 2;

/// Same fast SWIM timings as membership_test.cpp: a silent death is
/// confirmed in well under a second of wall clock.
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

/// Killable loopback cluster exposing the daemons, so tests can poll
/// membership_epoch() and read payload stats after shutdown.
class PayloadCluster {
 public:
  explicit PayloadCluster(std::vector<server::DaemonConfig> configs)
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

  ~PayloadCluster() { shutdown(); }

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

std::vector<server::DaemonConfig> carp_configs(const store::PayloadConfig& payload,
                                               bool membership) {
  std::vector<server::DaemonConfig> configs;
  for (NodeId id = 0; id <= kOriginId; ++id) {
    server::DaemonConfig config;
    config.node_id = id;
    config.role = id == kOriginId ? server::DaemonRole::kOrigin
                                  : server::DaemonRole::kCarpProxy;
    config.proxy_ids = {0, 1, 2, 3, 4};
    config.origin_id = kOriginId;
    config.adc.caching_table_size = 1000;
    config.carp_cache_capacity = 1000;
    config.seed = 1;
    config.payload = payload;
    if (membership) config.membership = fast_membership(/*seed=*/7);
    configs.push_back(std::move(config));
  }
  return configs;
}

server::LoadGenConfig loadgen_config(std::map<NodeId, net::Endpoint> proxies,
                                     int concurrency) {
  server::LoadGenConfig lg;
  lg.client_id = kClientId;
  lg.proxies = std::move(proxies);
  lg.concurrency = concurrency;
  lg.entry = server::EntryChoice::kRoundRobin;
  lg.idle_timeout_ms = 30000;
  lg.request_timeout_ms = 2000;
  lg.health.max_backoff_us = 250'000;
  return lg;
}

/// The live CARP owner map at startup: same member names as the daemon
/// and the simulator, so ownership computed here matches both.
hash::CarpArray startup_owner_map() {
  std::vector<hash::CarpArray::Member> members;
  for (NodeId id = 0; id < kProxies; ++id) {
    members.push_back({"proxy[" + std::to_string(id) + "]", id, 1.0});
  }
  return hash::CarpArray(std::move(members));
}

TEST(ErasureCluster, CarpByteLedgerMatchesSimulatorExactly) {
  // Deterministic routing + one request in flight = the live cluster's
  // transfer sequence is the simulator's.  With the payload store on, the
  // byte counters must agree exactly — far inside the 1% the validation
  // story asks for — and every body sample must checksum-verify.
  auto poly = workload::PolygraphConfig::scaled(0.004);  // ~16k requests
  poly.seed = 42;
  const workload::Trace trace = workload::generate_polygraph_trace(poly);

  store::PayloadConfig payload;
  payload.enabled = true;
  payload.seed = 97;

  driver::ExperimentConfig sim_config;
  sim_config.scheme = driver::Scheme::kCarp;
  sim_config.proxies = kProxies;
  sim_config.adc.caching_table_size = 1000;
  sim_config.entry_policy = proxy::EntryPolicy::kRoundRobin;
  sim_config.concurrency = 1;
  sim_config.seed = 1;
  sim_config.payload = payload;
  const driver::ExperimentResult expected = run_experiment(sim_config, trace);
  ASSERT_EQ(expected.summary.completed, trace.size());
  ASSERT_GT(expected.summary.bytes_completed, 0u);

  PayloadCluster cluster(carp_configs(payload, /*membership=*/false));
  server::LoadGenerator loadgen(loadgen_config(cluster.proxy_endpoints(true), 1));
  std::string error;
  ASSERT_TRUE(loadgen.connect(&error)) << error;
  const auto report = loadgen.run(trace.requests());
  ASSERT_FALSE(report.timed_out);
  cluster.shutdown();

  EXPECT_EQ(report.completed, expected.summary.completed);
  EXPECT_EQ(report.hits, expected.summary.hits);
  EXPECT_EQ(report.bytes_completed, expected.summary.bytes_completed);
  EXPECT_EQ(report.bytes_hit, expected.summary.bytes_hit);
  EXPECT_NEAR(report.byte_hit_rate(), expected.summary.byte_hit_rate(), 1e-12);

  // Every reply that crossed the wire carried a verified body sample.
  std::uint64_t verified = 0;
  for (std::size_t i = 0; i < kProxies; ++i) {
    const auto& stats = cluster.daemon(i).stats();
    verified += stats.bodies_verified;
    EXPECT_EQ(stats.body_verify_failures, 0u) << "daemon " << i;
  }
  EXPECT_GT(verified, 0u);
}

TEST(ErasureCluster, DegradedReadsServeTheDeadMembersObjects) {
  // Warm the whole cluster (every fetched object is striped across all 5
  // members), kill the victim, let SWIM confirm the death, then request
  // each victim-owned object exactly once.  The survivors hold 4 of its 5
  // stripe chunks — one more than k = 3 — so at least 90% of those
  // requests must complete as degraded reads, their bytes served from
  // chunks instead of the origin.
  auto poly = workload::PolygraphConfig::scaled(0.004);  // ~16k requests
  poly.seed = 42;
  const std::vector<ObjectId> objects =
      workload::generate_polygraph_trace(poly).requests();
  const std::size_t warm_until = objects.size() * 6 / 10;

  store::PayloadConfig payload;
  payload.enabled = true;
  payload.seed = 97;
  payload.erasure.enabled = true;
  payload.erasure.data_chunks = 3;

  PayloadCluster cluster(carp_configs(payload, /*membership=*/true));

  // Warm phase across all 5 members: every object is origin-fetched at
  // least once, so its owner striped it to the other four.
  {
    server::LoadGenerator warmup(loadgen_config(cluster.proxy_endpoints(true), 4));
    std::string error;
    ASSERT_TRUE(warmup.connect(&error)) << error;
    const auto warm = warmup.run(
        {objects.begin(), objects.begin() + static_cast<std::ptrdiff_t>(warm_until)});
    ASSERT_FALSE(warm.timed_out);
    EXPECT_EQ(warm.completed + warm.failed, static_cast<std::uint64_t>(warm_until));
  }

  cluster.kill(kVictim);
  ASSERT_TRUE(cluster.await_epoch(1, std::chrono::seconds(10)))
      << "survivors never confirmed the silent death";

  // The dead member's share of the URL space, restricted to objects the
  // warm phase actually striped — each requested once, so a plain cache
  // hit at the reassigned owner cannot masquerade as a recovery.
  const hash::CarpArray owners = startup_owner_map();
  std::vector<ObjectId> victims;
  std::set<ObjectId> seen;
  for (std::size_t i = 0; i < warm_until; ++i) {
    const ObjectId object = objects[i];
    if (owners.owner(object) == kVictim && seen.insert(object).second) {
      victims.push_back(object);
    }
  }
  ASSERT_GT(victims.size(), 100u) << "victim owned too little of the trace";

  server::LoadGenerator loadgen(loadgen_config(cluster.proxy_endpoints(false), 4));
  std::string error;
  ASSERT_TRUE(loadgen.connect(&error)) << error;
  const auto measured = loadgen.run(victims);
  ASSERT_FALSE(measured.timed_out);
  cluster.shutdown();

  EXPECT_EQ(measured.completed + measured.failed,
            static_cast<std::uint64_t>(victims.size()));
  ASSERT_GT(measured.completed, 0u);

  // The headline claim: >= 90% of the dead member's objects came back as
  // degraded reads, and their bytes landed in the hit ledger — near-zero
  // origin traffic for data the cluster already held.
  EXPECT_GE(static_cast<double>(measured.degraded_reads),
            0.9 * static_cast<double>(measured.completed))
      << measured.text();
  EXPECT_GT(measured.bytes_recovered, 0u);
  EXPECT_GE(static_cast<double>(measured.bytes_hit),
            0.9 * static_cast<double>(measured.bytes_completed));

  // The survivors' tiers did the serving, with verified chunk bodies.
  std::uint64_t recovered = 0, chunk_replies = 0;
  for (std::size_t i = 0; i < kProxies; ++i) {
    if (i == kVictim) continue;
    const auto& proxy =
        static_cast<const proxy::HashingProxy&>(cluster.daemon(i).hosted());
    ASSERT_NE(proxy.erasure_tier(), nullptr) << "daemon " << i;
    recovered += proxy.erasure_tier()->stats().degraded_recovered;
    chunk_replies += proxy.erasure_tier()->stats().chunk_replies_served;
    EXPECT_EQ(cluster.daemon(i).stats().body_verify_failures, 0u) << "daemon " << i;
  }
  EXPECT_GE(recovered, measured.degraded_reads);
  EXPECT_GT(chunk_replies, 0u);
}

}  // namespace
}  // namespace adc
