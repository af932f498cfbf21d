// Proactive re-stripe repair tests: the planner's budgeted rounds, retry
// and abandonment; replacement-owner election; and the leader/replacement
// state machine (offer, adopt, ack, rejoin hand-back) driven through a
// recording transport.
#include "store/restripe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "sim/message.h"
#include "sim/transport.h"
#include "store/erasure_tier.h"
#include "util/rng.h"

namespace adc::store {
namespace {

using sim::Message;
using sim::MessageKind;

class RecordingTransport final : public sim::Transport {
 public:
  void send(Message msg) override { sent.push_back(msg); }
  util::Rng& rng() noexcept override { return rng_; }
  SimTime now() const noexcept override { return 0; }

  std::vector<Message> of_kind(MessageKind kind) const {
    std::vector<Message> out;
    for (const Message& msg : sent) {
      if (msg.kind == kind) out.push_back(msg);
    }
    return out;
  }

  std::vector<Message> sent;

 private:
  util::Rng rng_{5};
};

RepairItem item_for(ObjectId object, int index, NodeId target, std::uint64_t bytes,
                    NodeId dead_owner = 9) {
  RepairItem item;
  item.object = object;
  item.index = index;
  item.target = target;
  item.dead_owner = dead_owner;
  item.bytes = bytes;
  return item;
}

TEST(RestripePlanner, BudgetBoundsRoundsButNeverWedges) {
  RestripePlanner planner(/*bytes_per_round=*/150, /*max_attempts=*/10);
  planner.enqueue(item_for(1, 0, 5, 100));
  planner.enqueue(item_for(2, 0, 5, 100));
  planner.enqueue(item_for(3, 0, 5, 1000));  // alone bigger than the budget

  std::vector<ObjectId> offered;
  const auto record = [&](const RepairItem& item) { offered.push_back(item.object); };

  // 100 + 100 > 150: one item per round while same-sized work queues.
  EXPECT_EQ(planner.next_round(record), 100u);
  ASSERT_EQ(offered, (std::vector<ObjectId>{1}));
  EXPECT_EQ(planner.next_round(record), 100u);
  ASSERT_EQ(offered, (std::vector<ObjectId>{1, 2}));
  // The oversized chunk still goes out — a chunk larger than the budget
  // must not wedge the queue forever.
  EXPECT_EQ(planner.next_round(record), 1000u);
  ASSERT_EQ(offered, (std::vector<ObjectId>{1, 2, 3}));

  EXPECT_EQ(planner.stats().rounds, 3u);
  EXPECT_EQ(planner.stats().round_bytes_max, 1000u);
  EXPECT_EQ(planner.stats().repair_bytes, 1200u);
  // Nothing was acked: all three items are still queued for retry.
  EXPECT_EQ(planner.queued(), 3u);
}

TEST(RestripePlanner, UnackedItemsRetryThenAbandon) {
  RestripePlanner planner(/*bytes_per_round=*/0, /*max_attempts=*/2);
  planner.enqueue(item_for(7, 1, 4, 50));

  int offers = 0;
  const auto count = [&](const RepairItem&) { ++offers; };
  EXPECT_GT(planner.next_round(count), 0u);  // attempt 1
  EXPECT_GT(planner.next_round(count), 0u);  // attempt 2 (a retry)
  EXPECT_EQ(offers, 2);
  EXPECT_TRUE(planner.pending());
  // Attempts exhausted: the next round abandons instead of offering.
  EXPECT_EQ(planner.next_round(count), 0u);
  EXPECT_EQ(offers, 2);
  EXPECT_FALSE(planner.pending());
  EXPECT_EQ(planner.stats().retries, 1u);
  EXPECT_EQ(planner.stats().items_abandoned, 1u);
}

// RepairItem counts its offers in 8 bits; a larger limit is clamped, so
// an item that is never acked is still abandoned instead of wrapping.
TEST(RestripePlanner, MaxAttemptsClampToTheCounterWidth) {
  RestripePlanner planner(/*bytes_per_round=*/0, /*max_attempts=*/1000);
  planner.enqueue(item_for(1, 0, 5, 100));
  int offers = 0;
  for (int round = 0; round < 300; ++round) {
    planner.next_round([&](const RepairItem&) { ++offers; });
  }
  EXPECT_EQ(offers, kMaxRepairAttempts);
  EXPECT_FALSE(planner.pending());
  EXPECT_EQ(planner.stats().items_abandoned, 1u);
}

TEST(RestripePlanner, AckRetiresExactlyOneItem) {
  RestripePlanner planner(/*bytes_per_round=*/0, /*max_attempts=*/5);
  planner.enqueue(item_for(7, 1, 4, 50));
  planner.enqueue(item_for(7, 2, 5, 50));  // same object, different chunk
  planner.next_round([](const RepairItem&) {});

  RepairItem acked;
  EXPECT_TRUE(planner.acked(7, 1, &acked));
  EXPECT_EQ(acked.target, 4);
  EXPECT_FALSE(planner.acked(7, 1));  // already retired
  EXPECT_EQ(planner.queued(), 1u);
  EXPECT_TRUE(planner.acked(7, 2));
  EXPECT_FALSE(planner.pending());
}

TEST(RestripePlanner, EnqueueDedupsByChunkAndRetargets) {
  RestripePlanner planner(/*bytes_per_round=*/0, /*max_attempts=*/5);
  planner.enqueue(item_for(3, 2, 4, 64));
  // A later death reassigned the replacement: same chunk, new target.
  planner.enqueue(item_for(3, 2, 6, 64));
  EXPECT_EQ(planner.queued(), 1u);
  EXPECT_EQ(planner.stats().items_enqueued, 1u);

  NodeId offered_target = kInvalidNode;
  planner.next_round([&](const RepairItem& item) { offered_target = item.target; });
  EXPECT_EQ(offered_target, 6);
}

TEST(RestripePlanner, RejoinCancelsItsDeadOwnersItems) {
  RestripePlanner planner(/*bytes_per_round=*/0, /*max_attempts=*/5);
  planner.enqueue(item_for(1, 0, 4, 64, /*dead_owner=*/2));
  planner.enqueue(item_for(2, 1, 5, 64, /*dead_owner=*/3));
  planner.enqueue(item_for(3, 2, 6, 64, /*dead_owner=*/2));
  planner.cancel_for_dead_owner(2);
  EXPECT_EQ(planner.queued(), 1u);
  EXPECT_EQ(planner.stats().items_cancelled, 2u);

  ObjectId survivor = 0;
  planner.next_round([&](const RepairItem& item) { survivor = item.object; });
  EXPECT_EQ(survivor, 2u);
}

// --- ErasureTier repair state machine ----------------------------------

PayloadStorePtr make_repair_store(std::uint64_t repair_budget = 0,
                                  int max_attempts = 5, bool restripe = true) {
  PayloadConfig config;
  config.enabled = true;
  config.seed = 97;
  config.erasure.enabled = true;
  config.erasure.data_chunks = 3;
  config.erasure.restripe = restripe;
  config.erasure.repair_bytes_per_round = repair_budget;
  config.erasure.repair_max_attempts = max_attempts;
  return std::make_shared<const PayloadStore>(config);
}

const std::vector<NodeId> kMembers = {0, 1, 2, 3, 4, 5, 6, 7};

/// First object in [1, 2000) whose stripe leader (peers[0]) is `leader`.
ObjectId object_led_by(const ErasureTier& tier, NodeId leader) {
  for (ObjectId candidate = 1; candidate < 2000; ++candidate) {
    const auto peers = tier.stripe_peers(candidate);
    if (!peers.empty() && peers[0] == leader) return candidate;
  }
  return 0;
}

TEST(RestripeTier, EffectiveOwnersAreDeterministicAliveAndDisjoint) {
  const ErasureTier a(0, make_repair_store(), kMembers);
  ErasureTier b(3, make_repair_store(), kMembers);
  ErasureTier c(0, make_repair_store(), kMembers);
  ASSERT_TRUE(a.enabled());
  // Healthy: effective owners ARE the stripe.
  EXPECT_EQ(a.effective_owners(42), a.stripe_peers(42));

  c.handle_peer_dead(5);
  b.handle_peer_dead(5);
  for (ObjectId object = 1; object <= 200; ++object) {
    const auto peers = a.stripe_peers(object);
    const auto owners = c.effective_owners(object);
    // Same dead set, any node: identical replacement election.
    EXPECT_EQ(owners, b.effective_owners(object));
    ASSERT_EQ(owners.size(), peers.size());
    const std::set<NodeId> in_stripe(peers.begin(), peers.end());
    std::set<NodeId> seen;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      ASSERT_NE(owners[i], kInvalidNode);
      EXPECT_TRUE(seen.insert(owners[i]).second) << "duplicate owner, object " << object;
      if (peers[i] != 5) {
        EXPECT_EQ(owners[i], peers[i]);  // alive originals keep their chunk
      } else {
        EXPECT_NE(owners[i], 5);
        EXPECT_EQ(in_stripe.count(owners[i]), 0u);  // replacement from outside
      }
    }
  }
}

/// One tier per member of kMembers over a shared store, with a delivery
/// loop that hands every sent stripe store, offer and ack to its target
/// until the network is quiet; messages to a member in `down` are lost.
struct TierCluster {
  explicit TierCluster(PayloadStorePtr shared) : store(std::move(shared)) {
    for (const NodeId member : kMembers) {
      tiers.push_back(std::make_unique<ErasureTier>(member, store, kMembers));
    }
  }

  bool is_down(NodeId member) const {
    return std::find(down.begin(), down.end(), member) != down.end();
  }

  void deliver() {
    while (!net.sent.empty()) {
      const std::vector<Message> batch = std::move(net.sent);
      net.sent.clear();
      for (const Message& msg : batch) {
        if (is_down(msg.target)) continue;
        ErasureTier& to = *tiers[static_cast<std::size_t>(msg.target)];
        if (msg.kind == MessageKind::kStripeStore) to.on_stripe_store(msg);
        if (msg.kind == MessageKind::kRestripeOffer) to.on_restripe_offer(net, msg);
        if (msg.kind == MessageKind::kRestripeAck) to.on_restripe_ack(msg);
      }
    }
  }

  /// Stripes objects [1, count], registered round-robin.
  void stripe(ObjectId count) {
    for (ObjectId object = 1; object <= count; ++object) {
      tiers[object % kMembers.size()]->stripe_object(net, object);
    }
    deliver();
  }

  /// Every standing tier learns of `dead`'s death; then `rounds` repair
  /// rounds run cluster-wide.
  void kill_and_repair(NodeId dead, int rounds) {
    down.push_back(dead);
    for (const NodeId member : kMembers) {
      if (!is_down(member)) tiers[member]->handle_peer_dead(dead);
    }
    for (int round = 0; round < rounds; ++round) {
      for (const NodeId member : kMembers) {
        if (!is_down(member)) tiers[member]->restripe_round(net);
      }
      deliver();
    }
  }

  PayloadStorePtr store;
  std::vector<std::unique_ptr<ErasureTier>> tiers;
  std::vector<NodeId> down;
  RecordingTransport net;
};

// Repair offers carry the bytes of the leader's directory entry, so every
// directory in a cluster must hold exactly chunk_size(object) per chunk:
// after striping, and after a death's repair rounds have re-homed chunks.
TEST(RestripeTier, DirectoryBytesEqualChunkSizeThroughRepair) {
  TierCluster cluster(make_repair_store());
  const auto expect_chunk_sizes = [&](const char* phase) {
    std::size_t chunks = 0;
    for (const NodeId member : kMembers) {
      if (cluster.is_down(member)) continue;
      cluster.tiers[member]->for_each_chunk([&](ObjectId object, int, std::uint64_t bytes) {
        EXPECT_EQ(bytes, cluster.store->chunk_size(object)) << phase << " object " << object;
        ++chunks;
      });
    }
    EXPECT_GT(chunks, 0u) << phase;
  };

  cluster.stripe(300);
  expect_chunk_sizes("striped");
  cluster.kill_and_repair(5, 8);
  std::uint64_t adopted = 0;
  for (const auto& tier : cluster.tiers) adopted += tier->stats().restripe_adopted;
  EXPECT_GT(adopted, 0u);
  expect_chunk_sizes("repaired");
}

// The driver's post-run census empties each directory as it counts it.
// After a death and a partial repair, with two more members down at the
// end, it must count what a union of the standing directories (walked
// read-only) counts — and leave every counted directory empty but usable.
TEST(RestripeTier, StripeCensusMatchesAUnionOfTheDirectories) {
  TierCluster cluster(make_repair_store(/*repair_budget=*/1));
  cluster.stripe(400);
  cluster.kill_and_repair(5, 2);  // one offer per leader per round: partial
  cluster.down.push_back(6);
  cluster.down.push_back(7);

  std::map<ObjectId, std::set<int>> held;  // object -> chunk indexes held
  std::vector<ErasureTier*> standing;
  for (const NodeId member : kMembers) {
    if (cluster.is_down(member)) continue;
    standing.push_back(cluster.tiers[member].get());
    standing.back()->for_each_chunk(
        [&held](ObjectId object, int index, std::uint64_t) { held[object].insert(index); });
  }
  const int k = cluster.store->code().k();
  const auto stranded = static_cast<std::size_t>(
      std::count_if(held.begin(), held.end(), [k](const auto& object_indexes) {
        return object_indexes.second.size() < static_cast<std::size_t>(k);
      }));
  ASSERT_GT(stranded, 0u);  // the census has something to count
  ASSERT_LT(stranded, held.size());

  const StripeCensus census = take_stripe_census(standing, k);
  EXPECT_EQ(census.objects, held.size());
  EXPECT_EQ(census.stranded, stranded);
  for (const ErasureTier* tier : standing) {
    EXPECT_EQ(tier->directory_entries(), 0u);
    EXPECT_EQ(tier->directory_bytes(), 0u);
    std::size_t visited = 0;
    tier->for_each_chunk([&visited](ObjectId, int, std::uint64_t) { ++visited; });
    EXPECT_EQ(visited, 0u);
  }
  EXPECT_GT(cluster.tiers[6]->directory_entries(), 0u);  // down: not counted, kept
  // A counted directory records chunks again like a new one.
  ErasureTier& tier = *cluster.tiers[0];
  Message store_msg;
  store_msg.kind = MessageKind::kStripeStore;
  store_msg.object = 9001;
  store_msg.sender = 1;
  store_msg.target = 0;
  store_msg.resolver = 2;
  store_msg.payload_bytes = 640;
  tier.on_stripe_store(store_msg);
  EXPECT_TRUE(tier.holds_chunk(9001));
  EXPECT_EQ(tier.directory_bytes(), 640u);
}

TEST(RestripeTier, TwoDeathsElectDistinctReplacements) {
  ErasureTier tier(0, make_repair_store(), kMembers);
  const ObjectId object = object_led_by(tier, 0);
  ASSERT_NE(object, 0u);
  const auto peers = tier.stripe_peers(object);
  tier.handle_peer_dead(peers[3]);
  tier.handle_peer_dead(peers[4]);
  const auto owners = tier.effective_owners(object);
  ASSERT_NE(owners[3], kInvalidNode);
  ASSERT_NE(owners[4], kInvalidNode);
  // One chunk per node: the two lost indices go to two different members.
  EXPECT_NE(owners[3], owners[4]);
}

TEST(RestripeTier, OnlyTheLeaderEnqueuesRepair) {
  ErasureTier leader(0, make_repair_store(), kMembers);
  const ObjectId object = object_led_by(leader, 0);
  ASSERT_NE(object, 0u);
  const auto peers = leader.stripe_peers(object);

  RecordingTransport net;
  leader.stripe_object(net, object);  // records chunk 0 locally
  ASSERT_TRUE(leader.holds_chunk(object));
  leader.handle_peer_dead(peers[3]);
  EXPECT_EQ(leader.restripe_queued(), 1u);

  // A surviving non-leader holding a chunk of the same stripe stays quiet.
  ErasureTier follower(peers[1], make_repair_store(), kMembers);
  Message store_msg;
  store_msg.kind = MessageKind::kStripeStore;
  store_msg.object = object;
  store_msg.resolver = 1;
  store_msg.payload_bytes = 64;
  follower.on_stripe_store(store_msg);
  follower.handle_peer_dead(peers[3]);
  EXPECT_EQ(follower.restripe_queued(), 0u);

  // But when the leader itself dies, the next survivor takes over.
  follower.handle_peer_dead(peers[0]);
  EXPECT_GT(follower.restripe_queued(), 0u);
}

TEST(RestripeTier, OfferAdoptAckHealsTheStripe) {
  ErasureTier leader(0, make_repair_store(), kMembers);
  const ObjectId object = object_led_by(leader, 0);
  ASSERT_NE(object, 0u);
  const auto peers = leader.stripe_peers(object);

  RecordingTransport net;
  leader.stripe_object(net, object);
  leader.handle_peer_dead(peers[3]);
  net.sent.clear();
  leader.restripe_round(net);
  const auto offers = net.of_kind(MessageKind::kRestripeOffer);
  ASSERT_EQ(offers.size(), 1u);
  const Message offer = offers[0];
  EXPECT_EQ(offer.object, object);
  EXPECT_EQ(offer.resolver, 3);
  EXPECT_EQ(offer.target, leader.effective_owners(object)[3]);
  EXPECT_EQ(offer.payload_bytes, make_repair_store()->chunk_size(object));

  // The replacement adopts the chunk and acks.
  ErasureTier replacement(offer.target, make_repair_store(), kMembers);
  RecordingTransport net2;
  replacement.on_restripe_offer(net2, offer);
  EXPECT_TRUE(replacement.holds_chunk(object));
  EXPECT_EQ(replacement.stats().restripe_adopted, 1u);
  int adopted_index = -1;
  replacement.for_each_chunk(
      [&](ObjectId o, int index, std::uint64_t) {
        if (o == object) adopted_index = index;
      });
  EXPECT_EQ(adopted_index, 3);
  const auto acks = net2.of_kind(MessageKind::kRestripeAck);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].target, 0);

  // The ack retires the work item and counts a healed stripe.
  leader.on_restripe_ack(acks[0]);
  EXPECT_EQ(leader.stats().stripes_healed, 1u);
  EXPECT_FALSE(leader.restripe_pending());
}

// An offer wider than a directory entry's 32-bit byte count is refused
// and counted, the directory keeps what it held, and the offer is still
// acked: re-offering the same chunk every round would not help.
TEST(RestripeTier, OversizedOfferIsRefusedCountedAndAcked) {
  ErasureTier replacement(5, make_repair_store(), kMembers);
  Message held;
  held.kind = MessageKind::kStripeStore;
  held.object = 42;
  held.resolver = 1;
  held.payload_bytes = 300;
  replacement.on_stripe_store(held);

  Message offer;
  offer.kind = MessageKind::kRestripeOffer;
  offer.object = 42;
  offer.sender = 0;
  offer.target = 5;
  offer.resolver = 3;
  offer.payload_bytes = kMaxChunkBytes + 1;
  RecordingTransport net;
  replacement.on_restripe_offer(net, offer);
  offer.object = 43;
  replacement.on_restripe_offer(net, offer);

  EXPECT_EQ(replacement.stats().chunks_refused_oversized, 2u);
  EXPECT_EQ(replacement.stats().restripe_adopted, 0u);
  EXPECT_FALSE(replacement.holds_chunk(43));
  EXPECT_EQ(replacement.directory_entries(), 1u);
  EXPECT_EQ(replacement.directory_bytes(), 300u);
  int index = -1;
  replacement.for_each_chunk([&](ObjectId, int i, std::uint64_t) { index = i; });
  EXPECT_EQ(index, 1);  // still the stored chunk, not the offered one
  const auto acks = net.of_kind(MessageKind::kRestripeAck);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0].target, 0);
  EXPECT_EQ(acks[0].resolver, 3);
}

TEST(RestripeTier, ChunkRequestsRequireTheMatchingIndex) {
  // Once repair re-homes chunks, a node may hold a *different* chunk of an
  // object than a degraded reader expects; claiming it would corrupt the
  // recovery count.
  ErasureTier tier(1, make_repair_store(), kMembers);
  Message store_msg;
  store_msg.kind = MessageKind::kStripeStore;
  store_msg.object = 7;
  store_msg.resolver = 2;
  store_msg.payload_bytes = 64;
  tier.on_stripe_store(store_msg);

  RecordingTransport net;
  Message req;
  req.kind = MessageKind::kChunkRequest;
  req.request_id = 900;
  req.object = 7;
  req.sender = 0;
  req.resolver = 1;  // asks for an index this node does not hold
  tier.on_chunk_request(net, req);
  req.resolver = 2;  // the held index
  tier.on_chunk_request(net, req);

  const auto replies = net.of_kind(MessageKind::kChunkReply);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_FALSE(replies[0].cached);
  EXPECT_TRUE(replies[1].cached);
}

TEST(RestripeTier, RejoinCancelsQueuedRepairWork) {
  ErasureTier leader(0, make_repair_store(), kMembers);
  const ObjectId object = object_led_by(leader, 0);
  ASSERT_NE(object, 0u);
  const auto peers = leader.stripe_peers(object);
  RecordingTransport net;
  leader.stripe_object(net, object);
  leader.handle_peer_dead(peers[3]);
  ASSERT_TRUE(leader.restripe_pending());
  leader.handle_peer_joined(peers[3]);
  EXPECT_FALSE(leader.restripe_pending());
  EXPECT_EQ(leader.restripe_stats().items_cancelled, 1u);
}

TEST(RestripeTier, RejoinHandsFosterChunksBack) {
  // A replacement adopted chunk 3 of the stripe; when the original owner
  // returns it gets its chunk back and the foster copy is dropped.
  ErasureTier leader(0, make_repair_store(), kMembers);
  const ObjectId object = object_led_by(leader, 0);
  ASSERT_NE(object, 0u);
  const auto peers = leader.stripe_peers(object);
  RecordingTransport net;
  leader.stripe_object(net, object);
  leader.handle_peer_dead(peers[3]);
  net.sent.clear();
  leader.restripe_round(net);
  const auto offers = net.of_kind(MessageKind::kRestripeOffer);
  ASSERT_EQ(offers.size(), 1u);

  ErasureTier replacement(offers[0].target, make_repair_store(), kMembers);
  RecordingTransport net2;
  replacement.handle_peer_dead(peers[3]);
  replacement.on_restripe_offer(net2, offers[0]);
  ASSERT_TRUE(replacement.holds_chunk(object));

  replacement.handle_peer_joined(peers[3]);
  ASSERT_TRUE(replacement.restripe_pending());
  net2.sent.clear();
  replacement.restripe_round(net2);
  const auto hand_backs = net2.of_kind(MessageKind::kRestripeOffer);
  ASSERT_EQ(hand_backs.size(), 1u);
  EXPECT_EQ(hand_backs[0].target, peers[3]);
  EXPECT_EQ(hand_backs[0].resolver, 3);

  // The owner acks; the foster copy goes away.
  Message ack;
  ack.kind = MessageKind::kRestripeAck;
  ack.object = object;
  ack.sender = peers[3];
  ack.target = offers[0].target;
  ack.resolver = 3;
  replacement.on_restripe_ack(ack);
  EXPECT_FALSE(replacement.holds_chunk(object));
  EXPECT_EQ(replacement.stats().restripe_handbacks, 1u);
}

TEST(RestripeTier, StripesRegisteredMidOutageAreBornFullWidth) {
  ErasureTier tier(0, make_repair_store(), kMembers);
  // An object striped elsewhere, so every chunk leaves as a message.
  ObjectId object = 0;
  for (ObjectId candidate = 1; candidate < 2000; ++candidate) {
    const auto peers = tier.stripe_peers(candidate);
    if (std::count(peers.begin(), peers.end(), 0) == 0) {
      object = candidate;
      break;
    }
  }
  ASSERT_NE(object, 0u);
  const auto peers = tier.stripe_peers(object);
  tier.handle_peer_dead(peers[2]);

  RecordingTransport net;
  tier.stripe_object(net, object);
  const auto stores = net.of_kind(MessageKind::kStripeStore);
  ASSERT_EQ(stores.size(), peers.size());  // full width despite the death
  const auto owners = tier.effective_owners(object);
  for (const Message& msg : stores) {
    EXPECT_NE(msg.target, peers[2]);
    EXPECT_EQ(msg.target, owners[static_cast<std::size_t>(msg.resolver)]);
  }
}

TEST(RestripeTier, ReconstructChunkMatchesFillChunkEveryIndex) {
  // The live repair path materializes offers with reconstruct_chunk
  // (genuine equation peeling); the receiver verifies against fill_chunk.
  // They must agree byte for byte at every index, data and parity alike.
  const auto store = make_repair_store();
  for (const ObjectId object : {ObjectId{3}, ObjectId{17}, ObjectId{420}}) {
    const std::size_t chunk = static_cast<std::size_t>(store->chunk_size(object));
    std::vector<std::uint8_t> rebuilt(chunk);
    std::vector<std::uint8_t> direct(chunk);
    for (int index = 0; index < store->code().stripe_width(); ++index) {
      const std::size_t got = store->reconstruct_chunk(object, index, rebuilt.data(), chunk);
      const std::size_t want = store->fill_chunk(object, index, direct.data(), chunk);
      ASSERT_GT(got, 0u) << "object " << object << " index " << index;
      ASSERT_EQ(std::vector<std::uint8_t>(rebuilt.begin(), rebuilt.begin() + got),
                std::vector<std::uint8_t>(direct.begin(), direct.begin() + want))
          << "object " << object << " index " << index;
    }
  }
}

}  // namespace
}  // namespace adc::store
