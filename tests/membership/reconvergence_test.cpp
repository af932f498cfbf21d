// Partition-heal reconvergence: proxies whose resolver opinions diverged
// while a partition was up must reconverge after the heal, through the
// versioned-claim rule (stale claims rejected) plus the transition-gated
// anti-entropy rounds.  This is the simulator-level proof that the
// membership layer repairs split-brain resolver state within a bounded
// number of repair rounds.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/adc_config.h"
#include "core/adc_proxy.h"
#include "fault/fault_plan.h"
#include "fault/faulty_network.h"
#include "membership/member_agent.h"
#include "sim/simulator.h"

namespace adc::membership {
namespace {

constexpr ObjectId kObject = 42;
constexpr SimTime kHeal = 3000;
constexpr SimTime kHorizon = 12000;

struct Cluster {
  sim::Simulator sim{7};
  std::vector<core::AdcProxy*> proxies;
  std::vector<MemberAgent*> agents;
};

/// Three ADC proxies (ids 0, 1, 2) wrapped in MemberAgents, which drive
/// them through the ProxyAgent interface: deaths prune tables and
/// forwarding membership, repair rounds offer resolver opinions.
std::unique_ptr<Cluster> make_cluster() {
  auto cluster = std::make_unique<Cluster>();
  const std::vector<NodeId> proxy_ids = {0, 1, 2};
  MembershipConfig mconfig;
  mconfig.swim.enabled = true;
  for (const NodeId id : proxy_ids) {
    core::AdcConfig aconfig;
    auto inner = std::make_unique<core::AdcProxy>(id, "proxy[" + std::to_string(id) + "]",
                                                  aconfig, proxy_ids, /*origin=*/99);
    core::AdcProxy* proxy = inner.get();
    auto agent = std::make_unique<MemberAgent>(std::move(inner), proxy_ids, mconfig);
    cluster->proxies.push_back(proxy);
    cluster->agents.push_back(agent.get());
    const NodeId assigned = cluster->sim.add_node(std::move(agent));
    EXPECT_EQ(assigned, id);
  }
  // Drive membership ticks over the whole test horizon (no client here to
  // gate rescheduling on, so a fixed schedule bounds the run).
  for (SimTime t = 50; t <= kHorizon; t += 50) {
    cluster->sim.schedule(t, [cluster = cluster.get(), t]() {
      for (MemberAgent* agent : cluster->agents) agent->tick(cluster->sim, t);
    });
  }
  return cluster;
}

TEST(Reconvergence, DivergentClaimsReconcileAfterPartitionHeal) {
  auto cluster = make_cluster();

  // Cut proxy 2 off from {0, 1} until kHeal.
  fault::FaultPlan plan;
  plan.partitions.push_back(fault::LinkPartition{0, 2, 0, kHeal});
  plan.partitions.push_back(fault::LinkPartition{1, 2, 0, kHeal});
  fault::FaultyNetwork chaos(plan);
  cluster->sim.set_fault_hook(&chaos);

  // Mid-partition — after both sides confirmed the split — each side forms
  // its own opinion about kObject.  The majority side's claim is fresher
  // (two resolver events happened there); the isolated side still holds a
  // pre-split claim naming itself.  Seeding twice on proxy 0 promotes the
  // entry into the multiple table, where anti-entropy offers read from.
  cluster->sim.schedule(2000, [cluster = cluster.get()]() {
    ASSERT_EQ(cluster->agents[0]->detector().state(2), PeerState::kDead);
    ASSERT_EQ(cluster->agents[2]->detector().state(0), PeerState::kDead);
    cluster->proxies[0]->seed_location(kObject, 1, 10);
    cluster->proxies[0]->seed_location(kObject, 1, 10);
    cluster->proxies[2]->seed_location(kObject, 2, 4);
  });

  cluster->sim.run();
  ASSERT_TRUE(cluster->sim.idle());

  // Both sides re-learned each other (death + rejoin = two epochs each).
  for (const MemberAgent* agent : cluster->agents) {
    EXPECT_GE(agent->detector().epoch(), 2u);
    EXPECT_EQ(agent->detector().alive_peers().size(), 2u);
  }

  // The stale opinion lost: proxy 2 now agrees with the fresher claim.
  EXPECT_EQ(cluster->proxies[2]->tables().forward_location(kObject), std::optional<NodeId>(1));
  EXPECT_EQ(cluster->proxies[2]->tables().claim_of(kObject), 10u);
  EXPECT_EQ(cluster->proxies[0]->tables().claim_of(kObject), 10u);
  EXPECT_GE(cluster->proxies[2]->stats().repairs_applied, 1u);
  EXPECT_GE(cluster->proxies[0]->stats().repair_offers, 1u);

  // Repair is transition-gated and bounded: rounds fired, but no more than
  // the per-transition budget times the (few) transitions this run saw.
  for (const MemberAgent* agent : cluster->agents) {
    EXPECT_GT(agent->repair().rounds_fired(), 0u);
    EXPECT_LE(agent->repair().rounds_fired(),
              RepairScheduler::kRoundsPerTransition * agent->detector().epoch() +
                  RepairScheduler::kRoundsPerTransition);
  }
}

TEST(Reconvergence, StaleClaimCannotOverwriteFresherOpinion) {
  auto cluster = make_cluster();

  // No partition: both proxies hold entries, proxy 0's is fresher.  A full
  // anti-entropy exchange (offer + counter-offer) must leave the fresher
  // claim standing on both sides, never regress it.
  cluster->proxies[0]->seed_location(kObject, 1, 10);
  cluster->proxies[0]->seed_location(kObject, 1, 10);
  cluster->proxies[2]->seed_location(kObject, 2, 4);
  cluster->proxies[2]->seed_location(kObject, 2, 4);

  // Offer the stale opinion to the fresh holder directly: it must be
  // rejected and countered.
  cluster->sim.schedule(100, [cluster = cluster.get()]() {
    cluster->proxies[2]->send_repair(cluster->sim, 0, 8);
  });
  cluster->sim.run();

  EXPECT_EQ(cluster->proxies[0]->tables().claim_of(kObject), 10u);
  EXPECT_EQ(cluster->proxies[0]->tables().forward_location(kObject), std::optional<NodeId>(1));
  EXPECT_GE(cluster->proxies[0]->stats().repair_counter_offers, 1u);
  // The counter-offer repaired the stale holder.
  EXPECT_EQ(cluster->proxies[2]->tables().claim_of(kObject), 10u);
  EXPECT_EQ(cluster->proxies[2]->tables().forward_location(kObject), std::optional<NodeId>(1));
}

TEST(Reconvergence, ZeroChurnKeepsRepairQuiescent) {
  auto cluster = make_cluster();
  cluster->proxies[0]->seed_location(kObject, 1, 10);
  cluster->sim.run();
  // No membership transition ever happened: the repair scheduler never
  // armed, so zero anti-entropy traffic — the property that keeps
  // zero-churn runs bit-identical to detector-free ones.
  for (const MemberAgent* agent : cluster->agents) {
    EXPECT_EQ(agent->detector().epoch(), 0u);
    EXPECT_EQ(agent->repair().rounds_fired(), 0u);
  }
  for (const core::AdcProxy* proxy : cluster->proxies) {
    EXPECT_EQ(proxy->stats().repair_offers, 0u);
  }
}

}  // namespace
}  // namespace adc::membership
