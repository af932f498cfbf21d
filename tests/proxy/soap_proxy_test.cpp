#include "proxy/soap_proxy.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "proxy/client.h"
#include "proxy/origin_server.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace adc::proxy {
namespace {

struct Deployment {
  Deployment(int n, std::vector<ObjectId> requests, SoapConfig config = {},
             std::uint64_t seed = 1, std::size_t categories = 8,
             std::size_t cache_capacity = 64)
      : sim(seed), stream(std::move(requests)) {
    std::vector<NodeId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(i);
    const NodeId origin_id = n;
    const NodeId client_id = n + 1;
    auto category_map = std::make_shared<CategoryMap>(categories);
    for (int i = 0; i < n; ++i) {
      auto node = std::make_unique<SoapProxy>(i, "proxy[" + std::to_string(i) + "]",
                                              category_map, ids, origin_id, cache_capacity,
                                              config);
      proxies.push_back(node.get());
      sim.add_node(std::move(node));
    }
    auto origin_node = std::make_unique<OriginServer>(origin_id, "origin");
    origin = origin_node.get();
    sim.add_node(std::move(origin_node));
    auto client_node = std::make_unique<Client>(client_id, "client", stream, ids,
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
  std::vector<SoapProxy*> proxies;
  OriginServer* origin = nullptr;
  Client* client = nullptr;
};

TEST(SoapProxy, CategoryMapPartitionsObjects) {
  const CategoryMap map(8);
  EXPECT_EQ(map.categories(), 8u);
  EXPECT_EQ(map.category_of(0), 0u);
  EXPECT_EQ(map.category_of(9), 1u);
  EXPECT_EQ(map.category_of(15), 7u);
}

TEST(SoapProxy, EverythingResolvesAndConserves) {
  std::vector<ObjectId> requests;
  for (int i = 0; i < 400; ++i) requests.push_back(1 + i % 19);
  Deployment d(3, requests);
  d.run();
  EXPECT_TRUE(d.client->drained());
  const auto& summary = d.sim.metrics().summary();
  EXPECT_EQ(summary.completed, 400u);
  EXPECT_EQ(summary.hits + d.origin->requests_served(), 400u);
}

TEST(SoapProxy, PendingDrains) {
  std::vector<ObjectId> requests;
  for (int i = 0; i < 200; ++i) requests.push_back(1 + i % 11);
  Deployment d(3, requests);
  d.run();
  for (const SoapProxy* proxy : d.proxies) EXPECT_EQ(proxy->pending(), 0u);
}

TEST(SoapProxy, HotCategoryConvergesToHits) {
  // One hot object requested repeatedly: after warmup the responsible
  // proxy (or the entries' caches) must serve it without the origin.
  std::vector<ObjectId> requests(300, 42);
  SoapConfig config;
  config.epsilon = 0.02;
  Deployment d(3, requests, config, /*seed=*/3);
  d.run();
  EXPECT_GT(d.sim.metrics().summary().hit_rate(), 0.85);
  EXPECT_LT(d.origin->requests_served(), 20u);
}

TEST(SoapProxy, ScoresMoveWithFeedback) {
  std::vector<ObjectId> requests(100, 42);
  Deployment d(2, requests, SoapConfig{}, /*seed=*/5);
  d.run();
  // The hot object's category routing was reinforced somewhere: at least
  // one (entry, peer) score moved off the 0.5 initial value.
  const CategoryMap map(8);
  const std::size_t category = map.category_of(42);
  bool moved = false;
  for (const SoapProxy* proxy : d.proxies) {
    for (NodeId peer = 0; peer < 2; ++peer) {
      if (proxy->score(category, peer) != 0.5) moved = true;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(SoapProxy, CategoryGranularityIsAWorkloadSensitiveKnob) {
  // The paper's SOAP retrospective (Section II.2) motivated ADC's
  // per-object tables because category-level mappings couldn't adapt to
  // arbitrary request mixes.  Granularity is a real knob: both extremes
  // must stay correct, and the learned structures must differ.
  util::Rng workload_rng(99);
  const util::ZipfSampler zipf(300, 0.9);
  std::vector<ObjectId> requests;
  for (int i = 0; i < 8000; ++i) {
    requests.push_back(static_cast<ObjectId>(zipf.sample(workload_rng)));
  }

  for (const std::size_t categories : {std::size_t{1}, std::size_t{16}}) {
    Deployment d(3, requests, SoapConfig{}, /*seed=*/7, categories,
                 /*cache_capacity=*/100);
    d.run();
    const auto& summary = d.sim.metrics().summary();
    EXPECT_EQ(summary.completed, 8000u) << "categories " << categories;
    EXPECT_EQ(summary.hits + d.origin->requests_served(), 8000u)
        << "categories " << categories;
    EXPECT_GT(summary.hit_rate(), 0.5) << "categories " << categories;
    for (const SoapProxy* proxy : d.proxies) {
      EXPECT_EQ(proxy->pending(), 0u);
    }
  }
}

TEST(SoapProxy, DeterministicAcrossRuns) {
  std::vector<ObjectId> requests;
  for (int i = 0; i < 200; ++i) requests.push_back(1 + i % 13);
  Deployment a(3, requests, SoapConfig{}, /*seed=*/9);
  Deployment b(3, requests, SoapConfig{}, /*seed=*/9);
  a.run();
  b.run();
  EXPECT_EQ(a.sim.metrics().summary().hits, b.sim.metrics().summary().hits);
  EXPECT_EQ(a.sim.metrics().summary().total_hops, b.sim.metrics().summary().total_hops);
}

// A reply with no pending fetch (a duplicate of one already relayed) is
// dropped and counted.
TEST(SoapProxy, ReplyWithoutPendingRecordIsAnOrphan) {
  Deployment d(2, {5});
  d.run();
  sim::Message duplicate;
  duplicate.kind = sim::MessageKind::kReply;
  duplicate.request_id = 12345;
  duplicate.object = 5;
  duplicate.sender = d.origin->id();
  d.proxies[0]->on_message(d.sim, duplicate);
  EXPECT_EQ(d.proxies[0]->stats().orphan_replies, 1u);
  EXPECT_EQ(d.sim.run(), 0u);  // nothing relayed
}

}  // namespace
}  // namespace adc::proxy
