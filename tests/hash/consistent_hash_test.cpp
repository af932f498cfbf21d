#include "hash/consistent_hash.h"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.h"

namespace adc::hash {
namespace {

ConsistentHashRing make_ring(int members, int vnodes = 64) {
  ConsistentHashRing ring(vnodes);
  for (int i = 0; i < members; ++i) {
    ring.add_member(static_cast<NodeId>(i), "proxy[" + std::to_string(i) + "]");
  }
  return ring;
}

TEST(ConsistentHash, RingPointCount) {
  const auto ring = make_ring(5, 32);
  EXPECT_EQ(ring.member_count(), 5u);
  EXPECT_EQ(ring.ring_size(), 5u * 32u);
}

TEST(ConsistentHash, OwnerIsStable) {
  const auto ring = make_ring(5);
  for (ObjectId oid = 1; oid <= 200; ++oid) EXPECT_EQ(ring.owner(oid), ring.owner(oid));
}

TEST(ConsistentHash, BalanceWithinTolerance) {
  const auto ring = make_ring(5, 128);
  std::map<NodeId, int> counts;
  util::Rng rng(1);
  constexpr int kKeys = 50000;
  for (int i = 0; i < kKeys; ++i) ++counts[ring.owner(static_cast<ObjectId>(rng.next()))];
  for (const auto& [node, count] : counts) {
    EXPECT_NEAR(count, kKeys / 5, kKeys / 5 * 0.25) << "member " << node;
  }
}

// A membership change rebuilds the ring from the surviving members.
TEST(ConsistentHash, RemovalOnlyRemapsVictimShare) {
  const auto ring = make_ring(5);
  const auto survivors = make_ring(4);  // member 4 gone
  util::Rng rng(2);
  std::map<ObjectId, NodeId> before;
  for (int i = 0; i < 20000; ++i) {
    const auto oid = static_cast<ObjectId>(rng.next());
    before[oid] = ring.owner(oid);
  }
  int moved_unnecessarily = 0;
  for (const auto& [oid, owner] : before) {
    if (owner == 4) continue;
    if (survivors.owner(oid) != owner) ++moved_unnecessarily;
  }
  EXPECT_EQ(moved_unnecessarily, 0);
}

TEST(ConsistentHash, RemoveThenReaddRestoresMapping) {
  const auto ring = make_ring(5);
  // The rebuild after member 2 rejoins adds it last.
  ConsistentHashRing rejoined;
  for (const NodeId id : {0, 1, 3, 4, 2}) {
    rejoined.add_member(id, "proxy[" + std::to_string(id) + "]");
  }
  util::Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const auto oid = static_cast<ObjectId>(rng.next());
    EXPECT_EQ(rejoined.owner(oid), ring.owner(oid));
  }
}

TEST(ConsistentHash, SingleMemberOwnsEverything) {
  const auto ring = make_ring(1);
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ring.owner(static_cast<ObjectId>(rng.next())), 0);
  }
}

}  // namespace
}  // namespace adc::hash
