#include "proxy/coordinator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "proxy/client.h"
#include "proxy/hierarchical_proxy.h"
#include "proxy/origin_server.h"
#include "sim/simulator.h"

namespace adc::proxy {
namespace {

struct Deployment {
  Deployment(int n, std::vector<ObjectId> requests, CoordinatorConfig config = {},
             std::uint64_t seed = 1)
      : sim(seed), stream(std::move(requests)) {
    const NodeId coordinator_id = n;
    const NodeId origin_id = n + 1;
    const NodeId client_id = n + 2;
    std::vector<NodeId> backend_ids;
    for (int i = 0; i < n; ++i) {
      backend_ids.push_back(i);
      auto node = std::make_unique<CacheNode>(i, "backend[" + std::to_string(i) + "]",
                                              origin_id, 32);
      backends.push_back(node.get());
      sim.add_node(std::move(node));
    }
    auto coord_node = std::make_unique<Coordinator>(coordinator_id, "coordinator",
                                                    backend_ids, config);
    coordinator = coord_node.get();
    sim.add_node(std::move(coord_node));
    auto origin_node = std::make_unique<OriginServer>(origin_id, "origin");
    origin = origin_node.get();
    sim.add_node(std::move(origin_node));
    auto client_node = std::make_unique<Client>(client_id, "client", stream,
                                                std::vector<NodeId>{coordinator_id});
    client = client_node.get();
    sim.add_node(std::move(client_node));
  }

  void run() {
    client->start(sim);
    sim.run();
  }

  sim::Simulator sim;
  VectorStream stream;
  std::vector<CacheNode*> backends;
  Coordinator* coordinator = nullptr;
  OriginServer* origin = nullptr;
  Client* client = nullptr;
};

TEST(Coordinator, RoutesAllTrafficAndConserves) {
  std::vector<ObjectId> requests;
  for (int i = 0; i < 200; ++i) requests.push_back(1 + i % 13);
  Deployment d(3, requests);
  d.run();
  EXPECT_TRUE(d.client->drained());
  EXPECT_EQ(d.coordinator->stats().dispatched, 200u);
  EXPECT_EQ(d.coordinator->stats().replies_relayed, 200u);
  const auto& summary = d.sim.metrics().summary();
  EXPECT_EQ(summary.completed, 200u);
  EXPECT_EQ(summary.hits + d.origin->requests_served(), 200u);
}

TEST(Coordinator, PendingDrains) {
  std::vector<ObjectId> requests;
  for (int i = 0; i < 100; ++i) requests.push_back(1 + i % 9);
  Deployment d(3, requests);
  d.run();
  EXPECT_EQ(d.coordinator->pending(), 0u);
}

TEST(Coordinator, HitJourneyHopsIncludeCoordinatorRelay) {
  // Single backend: journey 1 misses (c->co->b->o->b->co->c = 6 hops),
  // journey 2 hits (c->co->b->co->c = 4 hops).
  Deployment d(1, {7, 7});
  d.run();
  const auto& summary = d.sim.metrics().summary();
  EXPECT_EQ(summary.hits, 1u);
  EXPECT_EQ(summary.total_hops, 6u + 4u);
}

TEST(Coordinator, BalancesLoadAcrossEquallyFastBackends) {
  // Greedy dispatch with no exploration.  All scores start at 0.5
  // (optimistic), so the cold misses walk through every backend once;
  // afterwards equal hit response times keep pulling the current pick's
  // score down to the common level, and the dispatcher keeps rotating —
  // the self-balancing behaviour the coordinator was built for (paper
  // Section II.1: it adapts load, not content placement).
  CoordinatorConfig config;
  config.epsilon = 0.0;
  std::vector<ObjectId> requests(100, 42);
  Deployment d(3, requests, config);
  d.run();
  // 3 cold misses (one per backend), then 97 hits.
  EXPECT_EQ(d.sim.metrics().summary().hits, 97u);
  EXPECT_EQ(d.origin->requests_served(), 3u);
  for (const CacheNode* backend : d.backends) {
    EXPECT_GT(backend->stats().requests_received, 20u) << backend->name();
  }
}

TEST(Coordinator, ExplorationSpreadssLoad) {
  CoordinatorConfig config;
  config.epsilon = 1.0;  // always explore: uniform dispatch
  std::vector<ObjectId> requests(300, 42);
  Deployment d(3, requests, config, /*seed=*/5);
  d.run();
  EXPECT_EQ(d.coordinator->stats().explored, 300u);
  for (const CacheNode* backend : d.backends) {
    EXPECT_GT(backend->stats().requests_received, 50u) << backend->name();
  }
}

TEST(Coordinator, ScoresAreTracked) {
  Deployment d(2, {1, 1, 1, 1});
  d.run();
  // Scores remain in (0, 1] and the dispatching backend's score moved off
  // the 0.5 initialisation.
  bool moved = false;
  for (const CacheNode* backend : d.backends) {
    const double s = d.coordinator->score(backend->id());
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
    if (s != 0.5) moved = true;
  }
  EXPECT_TRUE(moved);
  EXPECT_EQ(d.coordinator->score(999), 0.0);  // unknown backend
}

TEST(Coordinator, ContentBlindnessCapsHitRate) {
  // The coordinator's known weakness (paper Section II.1): it dispatches
  // without considering placement.  With pure exploration over 3 backends,
  // a hot object gets replicated everywhere, costing extra origin fetches
  // compared to a content-aware scheme.
  CoordinatorConfig config;
  config.epsilon = 1.0;
  std::vector<ObjectId> requests(60, 42);
  Deployment d(3, requests, config, /*seed=*/9);
  d.run();
  // One fetch per backend (each must warm up separately).
  EXPECT_EQ(d.origin->requests_served(), 3u);
}

// A reply with no dispatch record (a duplicate of one already relayed) is
// dropped and counted.
TEST(Coordinator, ReplyWithoutDispatchRecordIsAnOrphan) {
  Deployment d(2, {5});
  d.run();
  sim::Message duplicate;
  duplicate.kind = sim::MessageKind::kReply;
  duplicate.request_id = 12345;
  duplicate.object = 5;
  duplicate.sender = d.backends[0]->id();
  d.coordinator->on_message(d.sim, duplicate);
  EXPECT_EQ(d.coordinator->stats().orphan_replies, 1u);
  EXPECT_EQ(d.sim.run(), 0u);  // nothing relayed
}

}  // namespace
}  // namespace adc::proxy
