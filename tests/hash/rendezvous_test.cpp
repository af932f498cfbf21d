#include "hash/rendezvous.h"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.h"

namespace adc::hash {
namespace {

RendezvousHash make_hrw(int members) {
  RendezvousHash hrw;
  for (int i = 0; i < members; ++i) {
    hrw.add_member(static_cast<NodeId>(i), "proxy[" + std::to_string(i) + "]");
  }
  return hrw;
}

TEST(Rendezvous, OwnerIsStable) {
  const auto hrw = make_hrw(5);
  for (ObjectId oid = 1; oid <= 200; ++oid) EXPECT_EQ(hrw.owner(oid), hrw.owner(oid));
}

TEST(Rendezvous, Balance) {
  const auto hrw = make_hrw(5);
  std::map<NodeId, int> counts;
  util::Rng rng(1);
  constexpr int kKeys = 50000;
  for (int i = 0; i < kKeys; ++i) ++counts[hrw.owner(static_cast<ObjectId>(rng.next()))];
  for (const auto& [node, count] : counts) {
    EXPECT_NEAR(count, kKeys / 5, kKeys / 5 * 0.10) << "member " << node;
  }
}

// A membership change rebuilds the owner map from the surviving members.
TEST(Rendezvous, RemovalOnlyRemapsVictimShare) {
  const auto hrw = make_hrw(5);
  const auto survivors = make_hrw(4);  // member 4 gone
  util::Rng rng(2);
  std::map<ObjectId, NodeId> before;
  for (int i = 0; i < 20000; ++i) {
    const auto oid = static_cast<ObjectId>(rng.next());
    before[oid] = hrw.owner(oid);
  }
  int moved_unnecessarily = 0;
  for (const auto& [oid, owner] : before) {
    if (owner == 4) continue;
    if (survivors.owner(oid) != owner) ++moved_unnecessarily;
  }
  EXPECT_EQ(moved_unnecessarily, 0);
}

TEST(Rendezvous, WeightsSkewAllocation) {
  RendezvousHash hrw;
  hrw.add_member(0, "light-a", 1.0);
  hrw.add_member(1, "light-b", 1.0);
  hrw.add_member(2, "heavy", 3.0);
  std::map<NodeId, int> counts;
  util::Rng rng(3);
  constexpr int kKeys = 100000;
  for (int i = 0; i < kKeys; ++i) ++counts[hrw.owner(static_cast<ObjectId>(rng.next()))];
  const double heavy = counts[2];
  const double light = (counts[0] + counts[1]) / 2.0;
  EXPECT_NEAR(heavy / light, 3.0, 0.4);
}

TEST(Rendezvous, MemberCountTracksChanges) {
  RendezvousHash hrw;
  EXPECT_TRUE(hrw.empty());
  hrw.add_member(0, "proxy[0]");
  EXPECT_EQ(hrw.member_count(), 1u);
  hrw.add_member(1, "proxy[1]");
  EXPECT_EQ(hrw.member_count(), 2u);
  EXPECT_FALSE(hrw.empty());
}

TEST(Rendezvous, SingleMemberOwnsEverything) {
  const auto hrw = make_hrw(1);
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(hrw.owner(static_cast<ObjectId>(rng.next())), 0);
  }
}

}  // namespace
}  // namespace adc::hash
