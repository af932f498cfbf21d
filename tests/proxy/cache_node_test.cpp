#include "proxy/hierarchical_proxy.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "proxy/client.h"
#include "proxy/origin_server.h"
#include "sim/simulator.h"

namespace adc::proxy {
namespace {

/// 2-level hierarchy: `leaves` CacheNodes under one root CacheNode.
struct Hierarchy {
  Hierarchy(int leaves, std::vector<ObjectId> requests, std::size_t capacity = 8)
      : sim(1), stream(std::move(requests)) {
    const NodeId root_id = leaves;
    const NodeId origin_id = leaves + 1;
    const NodeId client_id = leaves + 2;
    std::vector<NodeId> leaf_ids;
    for (int i = 0; i < leaves; ++i) {
      leaf_ids.push_back(i);
      auto node = std::make_unique<CacheNode>(i, "leaf[" + std::to_string(i) + "]", root_id,
                                              capacity);
      nodes.push_back(node.get());
      sim.add_node(std::move(node));
    }
    auto root_node = std::make_unique<CacheNode>(root_id, "root", origin_id, capacity);
    root = root_node.get();
    sim.add_node(std::move(root_node));
    auto origin_node = std::make_unique<OriginServer>(origin_id, "origin");
    origin = origin_node.get();
    sim.add_node(std::move(origin_node));
    auto client_node = std::make_unique<Client>(client_id, "client", stream, leaf_ids,
                                                EntryPolicy::kRoundRobin);
    client = client_node.get();
    sim.add_node(std::move(client_node));
  }

  void run() {
    client->start(sim);
    sim.run();
  }

  sim::Simulator sim;
  VectorStream stream;
  std::vector<CacheNode*> nodes;
  CacheNode* root = nullptr;
  OriginServer* origin = nullptr;
  Client* client = nullptr;
};

TEST(CacheNode, ColdMissClimbsToOriginAndCachesOnPath) {
  Hierarchy h(2, {5});
  h.run();
  EXPECT_EQ(h.origin->requests_served(), 1u);
  // Path: c->leaf0, leaf0->root, root->origin, origin->root, root->leaf0,
  // leaf0->c = 6 hops; both root and leaf0 cached the object.
  EXPECT_EQ(h.sim.metrics().summary().total_hops, 6u);
  EXPECT_TRUE(h.nodes[0]->cache().contains(5));
  EXPECT_TRUE(h.root->cache().contains(5));
  EXPECT_FALSE(h.nodes[1]->cache().contains(5));
}

TEST(CacheNode, LeafHitIsTwoHops) {
  Hierarchy h(1, {5, 5});
  h.run();
  const auto& summary = h.sim.metrics().summary();
  EXPECT_EQ(summary.hits, 1u);
  EXPECT_EQ(summary.total_hops, 6u + 2u);
}

TEST(CacheNode, RootHitServesSiblingLeaf) {
  // Leaf 0 warms the root (journey 1); journey 2 enters leaf 1 (round
  // robin), hits at the root, and leaf 1 caches the passing reply:
  // c->l1, l1->root (hit), root->l1, l1->c = 4 hops.
  Hierarchy h(2, {5, 5});
  h.run();
  const auto& summary = h.sim.metrics().summary();
  EXPECT_EQ(summary.hits, 1u);
  EXPECT_TRUE(h.nodes[1]->cache().contains(5));
  EXPECT_EQ(h.origin->requests_served(), 1u);
  EXPECT_EQ(summary.total_hops, 6u + 4u);
}

TEST(CacheNode, ConservationHolds) {
  std::vector<ObjectId> requests;
  for (int i = 0; i < 200; ++i) requests.push_back(1 + i % 17);
  Hierarchy h(3, requests);
  h.run();
  EXPECT_TRUE(h.client->drained());
  const auto& summary = h.sim.metrics().summary();
  EXPECT_EQ(summary.completed, 200u);
  EXPECT_EQ(summary.hits + h.origin->requests_served(), 200u);
}

TEST(CacheNode, PendingDrains) {
  std::vector<ObjectId> requests;
  for (int i = 0; i < 100; ++i) requests.push_back(1 + i % 9);
  Hierarchy h(2, requests);
  h.run();
  for (const CacheNode* node : h.nodes) EXPECT_EQ(node->pending(), 0u);
  EXPECT_EQ(h.root->pending(), 0u);
}

TEST(CacheNode, AdmitAllEvictsUnderPressure) {
  // Capacity 2: streaming distinct objects must keep evicting.
  std::vector<ObjectId> requests;
  for (int i = 0; i < 10; ++i) requests.push_back(100 + i);
  Hierarchy h(1, requests, /*capacity=*/2);
  h.run();
  EXPECT_EQ(h.nodes[0]->cache().size(), 2u);
  EXPECT_TRUE(h.nodes[0]->cache().contains(109));
  EXPECT_TRUE(h.nodes[0]->cache().contains(108));
}

TEST(CacheNode, StatsCount) {
  Hierarchy h(1, {5, 5, 6});
  h.run();
  EXPECT_EQ(h.nodes[0]->stats().requests_received, 3u);
  EXPECT_EQ(h.nodes[0]->stats().local_hits, 1u);
  EXPECT_EQ(h.nodes[0]->stats().forwards_upstream, 2u);
}

// A reply with no pending record (a duplicate of one already relayed) is
// dropped and counted instead of popping an empty record stack.
TEST(CacheNode, ReplyWithoutPendingRecordIsAnOrphan) {
  Hierarchy h(1, {5});
  h.run();
  sim::Message duplicate;
  duplicate.kind = sim::MessageKind::kReply;
  duplicate.request_id = 12345;
  duplicate.object = 5;
  duplicate.sender = h.root->id();
  h.nodes[0]->on_message(h.sim, duplicate);
  EXPECT_EQ(h.nodes[0]->stats().orphan_replies, 1u);
  EXPECT_EQ(h.sim.run(), 0u);  // nothing relayed
}

}  // namespace
}  // namespace adc::proxy
