// Differential tests for the erasure tier's flat structures.  The chunk
// directory, the stripe placement and the re-stripe queue used to be a
// std::list + std::unordered_map LRU, a full sort of every member's score
// and a std::list FIFO; the reference model below keeps those node-based
// versions so random operation sequences can check that the flat tier
// walks, evicts, places and queues exactly as they did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <ostream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
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

  std::vector<Message> sent;

 private:
  util::Rng rng_{5};
};

// --- Reference model: the node-based tier, reduced to the repair path ---

std::uint64_t ref_stripe_score(ObjectId object, NodeId member, std::uint64_t seed) {
  std::uint64_t state = seed ^ (object * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(member)) << 32);
  return util::splitmix64(state);
}

std::uint64_t ref_replacement_score(ObjectId object, int index, NodeId member,
                                    std::uint64_t seed) {
  std::uint64_t state = seed ^ (object * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(index + 1) * 0x517cc1b727220a95ULL) ^
                        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(member)) << 32);
  return util::splitmix64(state);
}

std::vector<NodeId> ref_stripe_peers(ObjectId object, std::vector<NodeId> members, int width,
                                     std::uint64_t seed) {
  std::sort(members.begin(), members.end());
  if (static_cast<int>(members.size()) < width) return {};
  std::vector<std::pair<std::uint64_t, NodeId>> scored;
  for (const NodeId m : members) scored.emplace_back(ref_stripe_score(object, m, seed), m);
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<NodeId> peers;
  for (int i = 0; i < width; ++i) peers.push_back(scored[static_cast<std::size_t>(i)].second);
  return peers;
}

/// The std::list FIFO planner: retarget in place, budgeted rounds,
/// abandonment after max attempts.
class RefPlanner {
 public:
  RefPlanner(std::uint64_t bytes_per_round, int max_attempts)
      : bytes_per_round_(bytes_per_round), max_attempts_(std::max(1, max_attempts)) {}

  void enqueue(const RepairItem& item) {
    const auto it = by_key_.find(key(item.object, item.index));
    if (it != by_key_.end()) {
      it->second->target = item.target;
      it->second->dead_owner = item.dead_owner;
      it->second->hand_back = item.hand_back;
      return;
    }
    queue_.push_back(item);
    by_key_.emplace(key(item.object, item.index), std::prev(queue_.end()));
  }

  void cancel_for_dead_owner(NodeId dead_owner) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->dead_owner == dead_owner) {
        by_key_.erase(key(it->object, it->index));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<RepairItem> next_round() {
    std::vector<RepairItem> offered;
    std::uint64_t sent_bytes = 0;
    std::size_t budget_items = queue_.size();
    while (budget_items-- > 0 && !queue_.empty()) {
      auto it = queue_.begin();
      if (bytes_per_round_ > 0 && !offered.empty() &&
          sent_bytes + it->bytes > bytes_per_round_) {
        break;
      }
      if (it->attempts >= max_attempts_) {
        by_key_.erase(key(it->object, it->index));
        queue_.erase(it);
        ++budget_items;
        continue;
      }
      ++it->attempts;
      sent_bytes += it->bytes;
      offered.push_back(*it);
      queue_.splice(queue_.end(), queue_, it);
    }
    return offered;
  }

  bool acked(ObjectId object, int index, RepairItem* out) {
    const auto it = by_key_.find(key(object, index));
    if (it == by_key_.end()) return false;
    *out = *it->second;
    queue_.erase(it->second);
    by_key_.erase(it);
    return true;
  }

  std::size_t queued() const { return queue_.size(); }

 private:
  static std::uint64_t key(ObjectId object, int index) {
    return object * 131ULL + static_cast<std::uint64_t>(index);
  }

  std::uint64_t bytes_per_round_;
  int max_attempts_;
  std::list<RepairItem> queue_;
  std::unordered_map<std::uint64_t, std::list<RepairItem>::iterator> by_key_;
};

/// The node-based tier: LRU directory as std::list + unordered_map, the
/// dead set as an unordered_set, placement by full sort.
class RefTier {
 public:
  RefTier(NodeId self, const PayloadStore& store, std::vector<NodeId> members)
      : self_(self),
        store_(store),
        members_(std::move(members)),
        repair_(store.config().erasure.repair_bytes_per_round,
                store.config().erasure.repair_max_attempts) {
    std::sort(members_.begin(), members_.end());
  }

  std::vector<NodeId> stripe_peers(ObjectId object) const {
    return ref_stripe_peers(object, members_, store_.code().stripe_width(), seed());
  }

  std::vector<NodeId> effective_owners(ObjectId object) const {
    std::vector<NodeId> owners = stripe_peers(object);
    if (owners.empty() || dead_.empty()) return owners;
    const std::unordered_set<NodeId> in_stripe(owners.begin(), owners.end());
    std::unordered_set<NodeId> taken;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if (dead_.count(owners[i]) == 0) continue;
      NodeId best = kInvalidNode;
      std::uint64_t best_score = 0;
      for (const NodeId m : members_) {
        if (in_stripe.count(m) != 0 || dead_.count(m) != 0 || taken.count(m) != 0) continue;
        const std::uint64_t score =
            ref_replacement_score(object, static_cast<int>(i), m, seed());
        if (best == kInvalidNode || score > best_score) {
          best = m;
          best_score = score;
        }
      }
      owners[i] = best;
      if (best != kInvalidNode) taken.insert(best);
    }
    return owners;
  }

  bool record_chunk(ObjectId object, int index, std::uint64_t bytes) {
    drop_chunk(object);
    const std::uint64_t budget = store_.config().erasure.directory_budget;
    if (budget > 0) {
      while (bytes_ + bytes > budget && !lru_.empty()) {
        const ObjectId victim = lru_.back();
        lru_.pop_back();
        bytes_ -= directory_.at(victim).bytes;
        directory_.erase(victim);
      }
      if (bytes_ + bytes > budget) return false;
    }
    lru_.push_front(object);
    directory_.emplace(object, Entry{index, bytes, lru_.begin()});
    bytes_ += bytes;
    return true;
  }

  void drop_chunk(ObjectId object) {
    const auto it = directory_.find(object);
    if (it == directory_.end()) return;
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    directory_.erase(it);
  }

  void touch(ObjectId object, int index) {
    const auto it = directory_.find(object);
    if (it != directory_.end() && it->second.index == index) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
    }
  }

  void handle_peer_dead(NodeId peer) {
    dead_.insert(peer);
    for (const ObjectId object : lru_) enqueue_repair_for(object);
  }

  void handle_peer_joined(NodeId peer) {
    dead_.erase(peer);
    repair_.cancel_for_dead_owner(peer);
    for (const ObjectId object : lru_) {
      const Entry& entry = directory_.at(object);
      const std::vector<NodeId> peers = stripe_peers(object);
      if (entry.index < 0 || static_cast<std::size_t>(entry.index) >= peers.size()) continue;
      if (peers[static_cast<std::size_t>(entry.index)] != peer) continue;
      RepairItem item;
      item.object = object;
      item.index = entry.index;
      item.target = peer;
      item.bytes = entry.bytes;
      item.hand_back = true;
      repair_.enqueue(item);
    }
  }

  void on_ack(ObjectId object, int index) {
    RepairItem item;
    if (!repair_.acked(object, index, &item)) return;
    if (!item.hand_back) return;
    const auto it = directory_.find(object);
    if (it != directory_.end() && it->second.index == item.index) drop_chunk(object);
  }

  std::vector<RepairItem> round() { return repair_.next_round(); }

  bool holds_chunk(ObjectId object) const { return directory_.count(object) != 0; }
  std::uint64_t directory_bytes() const { return bytes_; }
  std::size_t queued() const { return repair_.queued(); }

  /// (object, index, bytes) in LRU order, most recent first.
  std::vector<std::tuple<ObjectId, int, std::uint64_t>> walk() const {
    std::vector<std::tuple<ObjectId, int, std::uint64_t>> out;
    for (const ObjectId object : lru_) {
      const Entry& entry = directory_.at(object);
      out.emplace_back(object, entry.index, entry.bytes);
    }
    return out;
  }

 private:
  struct Entry {
    int index;
    std::uint64_t bytes;
    std::list<ObjectId>::iterator lru;
  };

  std::uint64_t seed() const { return store_.config().seed; }

  void enqueue_repair_for(ObjectId object) {
    const std::vector<NodeId> peers = stripe_peers(object);
    if (peers.empty()) return;
    NodeId leader = kInvalidNode;
    for (const NodeId p : peers) {
      if (dead_.count(p) == 0) {
        leader = p;
        break;
      }
    }
    if (leader != self_) return;
    const std::vector<NodeId> owners = effective_owners(object);
    const std::uint64_t chunk = store_.chunk_size(object);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      if (dead_.count(peers[i]) == 0 || owners[i] == kInvalidNode) continue;
      RepairItem item;
      item.object = object;
      item.index = static_cast<int>(i);
      item.target = owners[i];
      item.dead_owner = peers[i];
      item.bytes = chunk;
      repair_.enqueue(item);
    }
  }

  NodeId self_;
  const PayloadStore& store_;
  std::vector<NodeId> members_;
  RefPlanner repair_;
  std::unordered_set<NodeId> dead_;
  std::unordered_map<ObjectId, Entry> directory_;
  std::list<ObjectId> lru_;
  std::uint64_t bytes_ = 0;
};

// --- Stripe placement --------------------------------------------------

TEST(StripePlacementDiff, TopScoresMatchesSortWithForcedTies) {
  util::Rng rng(11);
  for (int trial = 0; trial < 3000; ++trial) {
    const int width = 1 + static_cast<int>(rng.next() % kMaxStripeWidth);
    // members == width on every fourth trial, otherwise up to 3x wider.
    const std::size_t n = trial % 4 == 0
                              ? static_cast<std::size_t>(width)
                              : static_cast<std::size_t>(width) + rng.next() % (2 * width + 1);
    // Scores from a tiny range force ties nearly everywhere; every third
    // trial uses full-range scores instead.
    const std::uint64_t range = trial % 3 == 0 ? 0 : 1 + rng.next() % 4;
    std::vector<std::uint64_t> scores(n);
    for (auto& s : scores) s = range == 0 ? rng.next() : rng.next() % range;

    TopScores top(width);
    for (std::size_t pos = 0; pos < n; ++pos) top.offer(scores[pos], static_cast<std::uint32_t>(pos));

    std::vector<std::uint32_t> order(n);
    for (std::size_t pos = 0; pos < n; ++pos) order[pos] = static_cast<std::uint32_t>(pos);
    std::sort(order.begin(), order.end(), [&scores](std::uint32_t a, std::uint32_t b) {
      return scores[a] != scores[b] ? scores[a] > scores[b] : a < b;
    });
    ASSERT_EQ(top.size(), width) << "trial " << trial;
    for (int rank = 0; rank < width; ++rank) {
      ASSERT_EQ(top.position(rank), order[static_cast<std::size_t>(rank)])
          << "trial " << trial << " rank " << rank;
    }
  }
}

TEST(StripePlacementDiff, StripePeersMatchSortReference) {
  util::Rng rng(12);
  for (int trial = 0; trial < 40; ++trial) {
    PayloadConfig config;
    config.enabled = true;
    config.seed = 1000 + static_cast<std::uint64_t>(trial);
    config.erasure.enabled = true;
    config.erasure.data_chunks = 2 + static_cast<int>(rng.next() % 6);
    const auto store = std::make_shared<const PayloadStore>(config);
    const int width = store->code().stripe_width();
    // Sparse, unsorted member ids; trial 0 of every 4 has exactly `width`.
    const std::size_t n = trial % 4 == 0 ? static_cast<std::size_t>(width)
                                         : static_cast<std::size_t>(width) + rng.next() % 9;
    std::vector<NodeId> members;
    for (NodeId id = 0; members.size() < n; id += 1 + static_cast<NodeId>(rng.next() % 5)) {
      members.push_back(id);
    }
    std::reverse(members.begin(), members.end());
    const ErasureTier tier(members.front(), store, members);
    ASSERT_TRUE(tier.enabled());
    for (ObjectId object = 0; object < 300; ++object) {
      ASSERT_EQ(tier.stripe_peers(object), ref_stripe_peers(object, members, width, config.seed))
          << "trial " << trial << " object " << object;
    }
  }
}

// --- Directory and repair queue ------------------------------------------

struct Limits {
  std::uint64_t seed;
  std::uint64_t directory_budget;
  std::uint64_t bytes_per_round;
};

const std::vector<NodeId> kEightMembers = {0, 1, 2, 3, 4, 5, 6, 7};

/// One random operation sequence, run by `self` inside `members`.
struct Sequence {
  Limits limits;
  std::vector<NodeId> members = kEightMembers;
  NodeId self = 2;
};

/// Rows over the default membership print as their limits alone, so they
/// keep the names they had before the membership became a parameter.
void PrintTo(const Sequence& seq, std::ostream* os) {
  *os << ::testing::PrintToString(seq.limits);
  if (seq.members == kEightMembers && seq.self == 2) return;
  *os << " members";
  for (const NodeId m : seq.members) *os << " " << m;
  *os << " self " << seq.self;
}

class DirectoryDiffTest : public ::testing::TestWithParam<Sequence> {};

TEST_P(DirectoryDiffTest, RandomSequencesMatchTheNodeBasedTier) {
  const Limits seq = GetParam().limits;
  const std::vector<NodeId>& members = GetParam().members;
  const NodeId self = GetParam().self;
  PayloadConfig config;
  config.enabled = true;
  config.seed = 97;
  config.erasure.enabled = true;
  config.erasure.data_chunks = 3;
  config.erasure.restripe = true;
  config.erasure.directory_budget = seq.directory_budget;
  config.erasure.repair_bytes_per_round = seq.bytes_per_round;
  config.erasure.repair_max_attempts = 3;
  const auto store = std::make_shared<const PayloadStore>(config);
  ASSERT_TRUE(std::is_sorted(members.begin(), members.end()));
  const auto self_at = std::find(members.begin(), members.end(), self);
  ASSERT_NE(self_at, members.end());
  // Chunks arrive from the member mirroring self in the sorted list.
  const NodeId sender = members[static_cast<std::size_t>(members.end() - self_at - 1)];
  ASSERT_NE(sender, self);

  ErasureTier tier(self, store, members);
  RefTier ref(self, *store, members);
  RecordingTransport net;
  util::Rng rng(seq.seed);
  constexpr ObjectId kObjects = 400;

  const auto chunk_msg = [self, sender](MessageKind kind, ObjectId object, int index,
                                        std::uint64_t bytes) {
    Message msg;
    msg.kind = kind;
    msg.object = object;
    msg.sender = sender;
    msg.target = self;
    msg.resolver = static_cast<NodeId>(index);
    msg.payload_bytes = bytes;
    return msg;
  };

  std::vector<RepairItem> last_offers;
  for (int step = 0; step < 6000; ++step) {
    const ObjectId object = rng.next() % kObjects;
    const int index = static_cast<int>(rng.next() % 5);
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 40) {
      // A peer's kStripeStore (or, every other time, a restripe offer).
      const std::uint64_t bytes = store->chunk_size(object);
      if (roll % 2 == 0) {
        tier.on_stripe_store(chunk_msg(MessageKind::kStripeStore, object, index, bytes));
      } else {
        tier.on_restripe_offer(net, chunk_msg(MessageKind::kRestripeOffer, object, index, bytes));
      }
      ref.record_chunk(object, index, bytes);
    } else if (roll < 60) {
      tier.on_chunk_request(net, chunk_msg(MessageKind::kChunkRequest, object, index, 0));
      ref.touch(object, index);
    } else if (roll < 64) {
      const NodeId peer = members[rng.next() % members.size()];
      if (peer != self) {
        tier.handle_peer_dead(peer);
        ref.handle_peer_dead(peer);
      }
    } else if (roll < 68) {
      const NodeId peer = members[rng.next() % members.size()];
      tier.handle_peer_joined(peer);
      ref.handle_peer_joined(peer);
    } else if (roll < 80) {
      net.sent.clear();
      tier.restripe_round(net);
      last_offers = ref.round();
      std::size_t offers = 0;
      for (const Message& msg : net.sent) {
        if (msg.kind != MessageKind::kRestripeOffer) continue;
        ASSERT_LT(offers, last_offers.size()) << "step " << step;
        const RepairItem& want = last_offers[offers++];
        ASSERT_EQ(msg.object, want.object) << "step " << step;
        ASSERT_EQ(msg.resolver, want.index) << "step " << step;
        ASSERT_EQ(msg.target, want.target) << "step " << step;
        ASSERT_EQ(msg.payload_bytes, want.bytes) << "step " << step;
      }
      ASSERT_EQ(offers, last_offers.size()) << "step " << step;
    } else if (!last_offers.empty()) {
      // Ack one of the last round's offers: a hand-back ack drops the
      // foster copy, a heal ack retires the item.
      const RepairItem& item = last_offers[rng.next() % last_offers.size()];
      Message ack = chunk_msg(MessageKind::kRestripeAck, item.object, item.index, 0);
      ack.sender = item.target;
      tier.on_restripe_ack(ack);
      ref.on_ack(item.object, item.index);
    }

    ASSERT_EQ(tier.directory_bytes(), ref.directory_bytes()) << "step " << step;
    ASSERT_EQ(tier.restripe_queued(), ref.queued()) << "step " << step;
    ASSERT_EQ(tier.holds_chunk(object), ref.holds_chunk(object)) << "step " << step;
    ASSERT_EQ(tier.effective_owners(object), ref.effective_owners(object)) << "step " << step;
    if (step % 100 == 0) {
      std::vector<std::tuple<ObjectId, int, std::uint64_t>> walk;
      tier.for_each_chunk([&walk](ObjectId o, int i, std::uint64_t b) { walk.emplace_back(o, i, b); });
      ASSERT_EQ(walk, ref.walk()) << "step " << step;
      for (ObjectId o = 0; o < kObjects; ++o) {
        ASSERT_EQ(tier.holds_chunk(o), ref.holds_chunk(o)) << "step " << step;
      }
    }
  }
  EXPECT_GT(tier.stats().chunks_stored, 0u);
  EXPECT_GT(tier.restripe_stats().offers_sent, 0u);
  if (seq.directory_budget > 0) {
    EXPECT_GT(tier.stats().chunks_evicted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, DirectoryDiffTest,
    ::testing::Values(Sequence{{1, 0, 0}}, Sequence{{2, 0, 64 * 1024}},
                      Sequence{{3, 256 * 1024, 0}}, Sequence{{4, 96 * 1024, 32 * 1024}},
                      Sequence{{5, 1024 * 1024, 128 * 1024}},
                      // Stripe width 5 of 6 members: nearly every node is in
                      // every stripe, so outranking members decide leadership.
                      Sequence{{6, 0, 64 * 1024}, {0, 1, 2, 3, 4, 5}, 3},
                      // Sparse ids with self the largest, the last position.
                      Sequence{{7, 96 * 1024, 32 * 1024},
                               {3, 5, 9, 14, 20, 21, 27, 33, 40, 41, 52, 60},
                               60}));

}  // namespace
}  // namespace adc::store
