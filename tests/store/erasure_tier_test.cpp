// ErasureTier state-machine tests: stripe assignment, the chunk directory
// and its byte budget, and the degraded-read recovery protocol — driven
// through a recording transport, no simulator required.
#include "store/erasure_tier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "sim/message.h"
#include "sim/transport.h"
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

PayloadStorePtr make_store(std::uint64_t directory_budget = 0) {
  PayloadConfig config;
  config.enabled = true;
  config.seed = 97;
  config.erasure.enabled = true;
  config.erasure.data_chunks = 3;
  config.erasure.directory_budget = directory_budget;
  return std::make_shared<const PayloadStore>(config);
}

const std::vector<NodeId> kMembers = {0, 1, 2, 3, 4, 5, 6};

Message client_request(ObjectId object, RequestId id) {
  Message msg;
  msg.kind = MessageKind::kRequest;
  msg.request_id = id;
  msg.object = object;
  msg.sender = 0;
  msg.client = 9;
  return msg;
}

Message chunk_reply(const Message& request, int index, bool cached,
                    std::uint64_t bytes) {
  Message reply;
  reply.kind = MessageKind::kChunkReply;
  reply.request_id = request.request_id;
  reply.object = request.object;
  reply.resolver = static_cast<NodeId>(index);
  reply.cached = cached;
  reply.payload_bytes = cached ? bytes : 0;
  return reply;
}

TEST(ErasureTier, DisabledBelowStripeWidth) {
  // k = 3 needs 5 members; 4 cannot host a stripe.
  const ErasureTier tier(0, make_store(), {0, 1, 2, 3});
  EXPECT_FALSE(tier.enabled());
  EXPECT_TRUE(tier.stripe_peers(1).empty());
}

TEST(ErasureTier, StripePeersAreDeterministicDistinctAndMemberwise) {
  const ErasureTier a(0, make_store(), kMembers);
  const ErasureTier b(3, make_store(), kMembers);
  ASSERT_TRUE(a.enabled());
  std::set<std::vector<NodeId>> assignments;
  for (ObjectId object = 1; object <= 200; ++object) {
    const std::vector<NodeId> peers = a.stripe_peers(object);
    ASSERT_EQ(peers.size(), 5u);
    // Same assignment computed on every node, coordination-free.
    EXPECT_EQ(peers, b.stripe_peers(object));
    const std::set<NodeId> unique(peers.begin(), peers.end());
    EXPECT_EQ(unique.size(), peers.size());
    for (const NodeId peer : peers) {
      EXPECT_TRUE(std::count(kMembers.begin(), kMembers.end(), peer) == 1);
    }
    assignments.insert(peers);
  }
  // Rendezvous hashing spreads stripes: one fixed assignment would pin
  // every chunk on the same 5 nodes.
  EXPECT_GT(assignments.size(), 10u);
}

TEST(ErasureTier, StripeObjectRegistersOncePerObject) {
  auto store = make_store();
  ErasureTier tier(0, store, kMembers);
  RecordingTransport net;
  const ObjectId object = 42;
  tier.stripe_object(net, object);
  tier.stripe_object(net, object);  // deduplicated

  const std::vector<NodeId> peers = tier.stripe_peers(object);
  const bool self_in_stripe = std::count(peers.begin(), peers.end(), 0) != 0;
  const auto stores = net.of_kind(MessageKind::kStripeStore);
  EXPECT_EQ(stores.size(), peers.size() - (self_in_stripe ? 1 : 0));
  EXPECT_EQ(tier.stats().stripes_registered, 1u);
  EXPECT_EQ(tier.holds_chunk(object), self_in_stripe);
  for (const Message& msg : stores) {
    EXPECT_EQ(msg.object, object);
    EXPECT_EQ(msg.payload_bytes, store->chunk_size(object));
    // resolver carries the chunk index matching the peer's stripe slot.
    EXPECT_EQ(peers[static_cast<std::size_t>(msg.resolver)], msg.target);
  }
}

TEST(ErasureTier, DirectoryBudgetEvictsOldestChunks) {
  auto store = make_store(/*directory_budget=*/1);  // fits nothing
  ErasureTier tier(0, store, kMembers);
  Message store_msg;
  store_msg.kind = MessageKind::kStripeStore;
  store_msg.object = 1;
  store_msg.resolver = 0;
  store_msg.payload_bytes = 100;
  tier.on_stripe_store(store_msg);
  EXPECT_FALSE(tier.holds_chunk(1));  // bigger than the whole budget
  EXPECT_EQ(tier.directory_bytes(), 0u);

  auto roomy = make_store(/*directory_budget=*/250);
  ErasureTier tier2(0, roomy, kMembers);
  for (ObjectId object = 1; object <= 3; ++object) {
    store_msg.object = object;
    tier2.on_stripe_store(store_msg);
  }
  // 3 x 100 > 250: the oldest (object 1) was evicted.
  EXPECT_FALSE(tier2.holds_chunk(1));
  EXPECT_TRUE(tier2.holds_chunk(2));
  EXPECT_TRUE(tier2.holds_chunk(3));
  EXPECT_EQ(tier2.stats().chunks_evicted, 1u);
  EXPECT_EQ(tier2.directory_bytes(), 200u);
}

// A chunk's byte count arrives as 64 bits (off the wire, in adcd) but a
// directory entry keeps 32: a store wider than that is refused and
// counted, and leaves the directory exactly as it was.
TEST(ErasureTier, OversizedStripeStoreIsRefusedAndCounted) {
  ErasureTier tier(0, make_store(), kMembers);
  Message store_msg;
  store_msg.kind = MessageKind::kStripeStore;
  store_msg.object = 1;
  store_msg.resolver = 0;
  store_msg.payload_bytes = 100;
  tier.on_stripe_store(store_msg);
  store_msg.payload_bytes = kMaxChunkBytes + 1;
  tier.on_stripe_store(store_msg);  // the same object: no refresh either
  store_msg.object = 2;
  tier.on_stripe_store(store_msg);
  EXPECT_EQ(tier.stats().chunks_refused_oversized, 2u);
  EXPECT_EQ(tier.stats().chunks_stored, 1u);
  EXPECT_TRUE(tier.holds_chunk(1));
  EXPECT_FALSE(tier.holds_chunk(2));
  EXPECT_EQ(tier.directory_entries(), 1u);
  EXPECT_EQ(tier.directory_bytes(), 100u);

  store_msg.payload_bytes = kMaxChunkBytes;  // the widest count that fits
  tier.on_stripe_store(store_msg);
  EXPECT_TRUE(tier.holds_chunk(2));
  EXPECT_EQ(tier.directory_bytes(), 100u + kMaxChunkBytes);
  EXPECT_EQ(tier.stats().chunks_refused_oversized, 2u);
}

TEST(ErasureTier, ChunkRequestServesHeldAndFlagsMissing) {
  auto store = make_store();
  ErasureTier tier(1, store, kMembers);
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
  req.resolver = 2;
  tier.on_chunk_request(net, req);
  req.object = 8;  // never striped here
  tier.on_chunk_request(net, req);

  const auto replies = net.of_kind(MessageKind::kChunkReply);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].cached);
  EXPECT_EQ(replies[0].payload_bytes, 64u);
  EXPECT_EQ(replies[0].target, 0);
  EXPECT_FALSE(replies[1].cached);
  EXPECT_EQ(tier.stats().chunk_replies_served, 1u);
  EXPECT_EQ(tier.stats().chunk_replies_missing, 1u);
}

TEST(ErasureTier, RecoveryCollectsKChunksThenResolves) {
  auto store = make_store();
  ErasureTier tier(0, store, kMembers);
  RecordingTransport net;

  // Pick an object whose stripe excludes node 0, so every chunk must come
  // from a peer and the arithmetic below is exact.
  ObjectId object = 0;
  for (ObjectId candidate = 1; candidate < 500; ++candidate) {
    const auto peers = tier.stripe_peers(candidate);
    if (std::count(peers.begin(), peers.end(), 0) == 0) {
      object = candidate;
      break;
    }
  }
  ASSERT_NE(object, 0u);

  tier.handle_peer_dead(6);
  ASSERT_TRUE(tier.has_dead_peer());
  const Message request = client_request(object, 501);
  ASSERT_TRUE(tier.begin_recovery(net, request));
  const auto asks = net.of_kind(MessageKind::kChunkRequest);
  const auto peers = tier.stripe_peers(object);
  const std::size_t dead_in_stripe =
      static_cast<std::size_t>(std::count(peers.begin(), peers.end(), 6));
  EXPECT_EQ(asks.size(), peers.size() - dead_in_stripe);
  for (const Message& ask : asks) EXPECT_NE(ask.target, 6);

  // Two confirmations: still pending (k = 3); the third recovers.
  EXPECT_EQ(tier.on_chunk_reply(chunk_reply(request, 0, true, 10)).outcome,
            ErasureTier::Outcome::kPending);
  EXPECT_EQ(tier.on_chunk_reply(chunk_reply(request, 1, true, 10)).outcome,
            ErasureTier::Outcome::kPending);
  const auto res = tier.on_chunk_reply(chunk_reply(request, 2, true, 10));
  EXPECT_EQ(res.outcome, ErasureTier::Outcome::kRecovered);
  EXPECT_EQ(res.request.request_id, request.request_id);
  EXPECT_EQ(res.object_bytes, store->size_of(object));
  EXPECT_EQ(tier.stats().degraded_recovered, 1u);
  EXPECT_EQ(tier.stats().recovered_bytes, store->size_of(object));
  // The recovery is retired: a straggler reply is stale.
  EXPECT_EQ(tier.on_chunk_reply(chunk_reply(request, 3, true, 10)).outcome,
            ErasureTier::Outcome::kNone);
}

TEST(ErasureTier, ShortfallFallsBackToOrigin) {
  auto store = make_store();
  ErasureTier tier(0, store, kMembers);
  RecordingTransport net;
  ObjectId object = 0;
  for (ObjectId candidate = 1; candidate < 500; ++candidate) {
    const auto peers = tier.stripe_peers(candidate);
    if (std::count(peers.begin(), peers.end(), 0) == 0) {
      object = candidate;
      break;
    }
  }
  ASSERT_NE(object, 0u);
  tier.handle_peer_dead(6);
  const Message request = client_request(object, 502);
  ASSERT_TRUE(tier.begin_recovery(net, request));
  const std::size_t asked = net.of_kind(MessageKind::kChunkRequest).size();
  ASSERT_GE(asked, 3u);

  // Every survivor answers "chunk missing": once 3 confirmations become
  // impossible the recovery fails and returns the original request.
  ErasureTier::Resolution last;
  for (std::size_t i = 0; i < asked; ++i) {
    last = tier.on_chunk_reply(chunk_reply(request, static_cast<int>(i), false, 0));
    if (last.outcome == ErasureTier::Outcome::kFailed) break;
  }
  EXPECT_EQ(last.outcome, ErasureTier::Outcome::kFailed);
  EXPECT_EQ(last.request.request_id, request.request_id);
  EXPECT_EQ(tier.stats().degraded_failed, 1u);
}

TEST(ErasureTier, RecoveryRefusedWhenSurvivorsCannotReachK) {
  auto store = make_store();
  ErasureTier tier(0, store, kMembers);
  RecordingTransport net;
  ObjectId object = 0;
  for (ObjectId candidate = 1; candidate < 500; ++candidate) {
    const auto peers = tier.stripe_peers(candidate);
    if (std::count(peers.begin(), peers.end(), 0) == 0) {
      object = candidate;
      break;
    }
  }
  ASSERT_NE(object, 0u);
  // Kill 3 of the 5 stripe peers: at most 2 survivors < k = 3.
  const auto peers = tier.stripe_peers(object);
  tier.handle_peer_dead(peers[0]);
  tier.handle_peer_dead(peers[1]);
  tier.handle_peer_dead(peers[2]);
  EXPECT_FALSE(tier.begin_recovery(net, client_request(object, 503)));
  EXPECT_TRUE(net.sent.empty());
  EXPECT_EQ(tier.stats().degraded_started, 0u);
}

TEST(ErasureTier, RejoinClosesTheDegradedGate) {
  ErasureTier tier(0, make_store(), kMembers);
  tier.handle_peer_dead(3);
  EXPECT_TRUE(tier.has_dead_peer());
  tier.handle_peer_joined(3);
  EXPECT_FALSE(tier.has_dead_peer());
}

}  // namespace
}  // namespace adc::store
