#include "store/erasure_tier.h"

#include <algorithm>

#include "util/rng.h"

namespace adc::store {
namespace {

/// Rendezvous score of (object, member): highest k+2 scores own the
/// stripe.  Seeded by the payload seed so every node computes the same
/// assignment without coordination.
std::uint64_t stripe_score(ObjectId object, NodeId member, std::uint64_t seed) {
  std::uint64_t state = seed ^ (object * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(member)) << 32);
  return util::splitmix64(state);
}

/// Secondary rendezvous for replacement owners: scores (object, chunk
/// index, member) so each lost index elects its own replacement, again
/// without coordination.  Independent of stripe_score — a member's rank
/// for adopting chunk i carries no information about its stripe rank.
std::uint64_t replacement_score(ObjectId object, int index, NodeId member, std::uint64_t seed) {
  std::uint64_t state = seed ^ (object * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(index + 1) * 0x517cc1b727220a95ULL) ^
                        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(member)) << 32);
  return util::splitmix64(state);
}

}  // namespace

ErasureTier::ErasureTier(NodeId self, PayloadStorePtr store, std::vector<NodeId> members)
    : self_(self),
      store_(std::move(store)),
      members_(std::move(members)),
      repair_(store_->config().erasure.repair_bytes_per_round,
              store_->config().erasure.repair_max_attempts) {
  std::sort(members_.begin(), members_.end());
  self_pos_ = position_of(self_);
  dead_.assign(members_.size(), 0);
  enabled_ = store_->config().erasure.enabled &&
             static_cast<int>(members_.size()) >= stripe_width();
  restripe_enabled_ = enabled_ && store_->config().erasure.restripe;
}

std::uint32_t ErasureTier::position_of(NodeId node) const noexcept {
  const auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it == members_.end() || *it != node) return kNoMember;
  return static_cast<std::uint32_t>(it - members_.begin());
}

ErasureTier::Stripe ErasureTier::place(ObjectId object) const {
  Stripe stripe;
  if (!enabled_) return stripe;
  const std::uint64_t seed = store_->config().seed;
  TopScores top(stripe_width());
  for (std::uint32_t pos = 0; pos < members_.size(); ++pos) {
    top.offer(stripe_score(object, members_[pos], seed), pos);
  }
  stripe.width = top.size();
  for (int i = 0; i < stripe.width; ++i) stripe.at[i] = top.position(i);
  return stripe;
}

ErasureTier::Stripe ErasureTier::current_owners(ObjectId object, const Stripe& stripe) const {
  Stripe owners = stripe;
  if (dead_count_ == 0) return owners;
  const auto in_stripe = [&stripe](std::uint32_t pos) {
    for (int i = 0; i < stripe.width; ++i) {
      if (stripe.at[i] == pos) return true;
    }
    return false;
  };
  // One chunk per replacement; only the first taken_count slots are read.
  std::array<std::uint32_t, kMaxStripeWidth> taken;
  int taken_count = 0;
  const auto is_taken = [&taken, &taken_count](std::uint32_t pos) {
    for (int t = 0; t < taken_count; ++t) {
      if (taken[t] == pos) return true;
    }
    return false;
  };
  const std::uint64_t seed = store_->config().seed;
  for (int i = 0; i < stripe.width; ++i) {
    if (dead_[stripe.at[i]] == 0) continue;
    std::uint32_t best = kNoMember;
    std::uint64_t best_score = 0;
    for (std::uint32_t pos = 0; pos < members_.size(); ++pos) {
      if (dead_[pos] != 0 || in_stripe(pos) || is_taken(pos)) continue;
      const std::uint64_t score = replacement_score(object, i, members_[pos], seed);
      // members_ is sorted ascending, so the first holder of the max score
      // is also the smallest id — ties break deterministically for free.
      if (best == kNoMember || score > best_score) {
        best = pos;
        best_score = score;
      }
    }
    owners.at[i] = best;
    if (best != kNoMember) taken[taken_count++] = best;
  }
  return owners;
}

std::vector<NodeId> ErasureTier::stripe_peers(ObjectId object) const {
  const Stripe stripe = place(object);
  std::vector<NodeId> peers(static_cast<std::size_t>(stripe.width));
  for (int i = 0; i < stripe.width; ++i) peers[i] = members_[stripe.at[i]];
  return peers;
}

std::vector<NodeId> ErasureTier::effective_owners(ObjectId object) const {
  const Stripe owners = current_owners(object, place(object));
  std::vector<NodeId> out(static_cast<std::size_t>(owners.width));
  for (int i = 0; i < owners.width; ++i) out[i] = node_at(owners.at[i]);
  return out;
}

void ErasureTier::stripe_object(sim::Transport& net, ObjectId object) {
  if (!enabled_ || striped_.contains(object)) return;
  const Stripe peers = place(object);
  if (peers.width == 0) return;
  striped_.assign(object, 0);
  ++stats_.stripes_registered;
  // With repair on and deaths believed, dead owners' chunks go straight to
  // their replacements: stripes registered mid-outage are born full-width
  // instead of inheriting the hole.
  const Stripe owners =
      (restripe_enabled_ && dead_count_ != 0) ? current_owners(object, peers) : peers;
  const std::uint64_t chunk = store_->chunk_size(object);
  for (int i = 0; i < owners.width; ++i) {
    const NodeId owner = node_at(owners.at[i]);
    if (owner == kInvalidNode) continue;
    if (owner == self_) {
      record_chunk(object, i, chunk);
      continue;
    }
    sim::Message store_msg;
    store_msg.kind = sim::MessageKind::kStripeStore;
    store_msg.object = object;
    store_msg.sender = self_;
    store_msg.target = owner;
    store_msg.resolver = static_cast<NodeId>(i);  // chunk index
    store_msg.payload_bytes = chunk;
    net.send(store_msg);
  }
}

bool ErasureTier::record_chunk(ObjectId object, int index, std::uint64_t bytes) {
  // Re-registration (e.g. a new owner re-striped after churn): refresh.
  drop_chunk(object);
  const std::uint64_t budget = store_->config().erasure.directory_budget;
  if (budget > 0) {
    while (directory_bytes_ + bytes > budget && !directory_.empty()) {
      directory_bytes_ -= directory_.erase(directory_.back()).bytes;
      ++stats_.chunks_evicted;
    }
    if (directory_bytes_ + bytes > budget) return false;  // bigger than the budget
  }
  directory_.push_front(DirEntry{object, bytes, index});
  directory_bytes_ += bytes;
  ++stats_.chunks_stored;
  return true;
}

void ErasureTier::drop_chunk(ObjectId object) {
  const auto slot = directory_.find(object);
  if (slot == directory_.kNil) return;
  directory_bytes_ -= directory_.erase(slot).bytes;
}

void ErasureTier::on_stripe_store(const sim::Message& msg) {
  if (!enabled_) return;
  record_chunk(msg.object, static_cast<int>(msg.resolver), msg.payload_bytes);
}

void ErasureTier::on_chunk_request(sim::Transport& net, const sim::Message& msg) {
  sim::Message reply;
  reply.kind = sim::MessageKind::kChunkReply;
  reply.request_id = msg.request_id;
  reply.object = msg.object;
  reply.sender = self_;
  reply.target = msg.sender;
  reply.client = msg.client;
  reply.hops = msg.hops;
  reply.resolver = msg.resolver;  // chunk index echoed back
  const auto slot = enabled_ ? directory_.find(msg.object) : directory_.kNil;
  // The entry must cover the *requested* index: once repair re-homes
  // chunks, a node can hold a different chunk of the object than the one
  // the reader expects, and claiming it would corrupt the recovery count.
  // (Without repair the held index always matches the requested one.)
  if (slot != directory_.kNil && directory_[slot].index == static_cast<int>(msg.resolver)) {
    // Touch the LRU: a chunk consulted by a recovery is worth keeping.
    directory_.move_to_front(slot);
    reply.cached = true;
    reply.payload_bytes = directory_[slot].bytes;
    ++stats_.chunk_replies_served;
    stats_.chunk_bytes_sent += directory_[slot].bytes;
  } else {
    reply.cached = false;
    ++stats_.chunk_replies_missing;
  }
  net.send(reply);
}

bool ErasureTier::begin_recovery(sim::Transport& net, const sim::Message& msg) {
  if (!enabled_ || recoveries_.contains(msg.request_id)) return false;
  const Stripe peers = place(msg.object);
  if (peers.width == 0) return false;
  // With repair on, read from the healed layout: replacements answer for
  // the indices they adopted, so a stripe that lost two original members
  // but was re-homed in between still yields k chunks.
  const Stripe owners = restripe_enabled_ ? current_owners(msg.object, peers) : peers;

  Recovery rec;
  rec.request = msg;
  struct Candidate {
    int index;  // chunk index the peer holds
    NodeId peer;
    std::uint64_t load;
  };
  std::array<Candidate, kMaxStripeWidth> ask{};
  std::size_t asked = 0;
  for (int i = 0; i < owners.width; ++i) {
    const std::uint32_t pos = owners.at[i];
    if (pos == kNoMember) continue;
    if (members_[pos] == self_) {
      const auto slot = directory_.find(msg.object);
      if (slot != directory_.kNil && directory_[slot].index == i) ++rec.have;
      continue;
    }
    if (dead_[pos] != 0) continue;
    ask[asked++] = Candidate{i, members_[pos], 0};
  }
  const int k = store_->code().k();
  if (rec.have + static_cast<int>(asked) < k) return false;

  // Placement is deterministic, recovery is free: with a load probe the
  // tier asks only the k - have lightest-loaded survivors plus one spare
  // (insurance against a directory eviction) instead of every survivor.
  // Without a probe it asks all survivors — the original behaviour,
  // bit for bit.
  if (load_probe_) {
    for (std::size_t c = 0; c < asked; ++c) ask[c].load = load_probe_(ask[c].peer);
    // Stable insertion sort by (load, peer): at most a stripe's worth.
    for (std::size_t c = 1; c < asked; ++c) {
      const Candidate cand = ask[c];
      std::size_t j = c;
      for (; j > 0 && (ask[j - 1].load != cand.load ? ask[j - 1].load > cand.load
                                                    : ask[j - 1].peer > cand.peer);
           --j) {
        ask[j] = ask[j - 1];
      }
      ask[j] = cand;
    }
    const auto want = static_cast<std::size_t>(k - rec.have) + 1;
    if (asked > want) {
      stats_.chunk_requests_skipped += asked - want;
      asked = want;
    }
  }

  for (std::size_t c = 0; c < asked; ++c) {
    sim::Message req;
    req.kind = sim::MessageKind::kChunkRequest;
    req.request_id = msg.request_id;
    req.object = msg.object;
    req.sender = self_;
    req.target = ask[c].peer;
    req.client = msg.client;
    req.hops = msg.hops;
    req.resolver = static_cast<NodeId>(ask[c].index);  // chunk index held by that peer
    net.send(req);
    ++rec.outstanding;
    ++stats_.chunk_requests_sent;
  }
  ++stats_.degraded_started;
  recoveries_.push_back(rec);
  return true;
}

ErasureTier::Resolution ErasureTier::on_chunk_reply(const sim::Message& msg) {
  const auto slot = recoveries_.find(msg.request_id);
  if (slot == recoveries_.kNil) return {};
  Recovery& rec = recoveries_[slot];
  --rec.outstanding;
  if (msg.cached) ++rec.have;

  const int k = store_->code().k();
  if (rec.have >= k) {
    Resolution out;
    out.outcome = Outcome::kRecovered;
    out.request = recoveries_.erase(slot).request;
    out.object_bytes = store_->size_of(msg.object);
    ++stats_.degraded_recovered;
    stats_.recovered_bytes += out.object_bytes;
    return out;
  }
  if (rec.have + rec.outstanding < k) {
    Resolution out;
    out.outcome = Outcome::kFailed;
    out.request = recoveries_.erase(slot).request;
    ++stats_.degraded_failed;
    return out;
  }
  Resolution out;
  out.outcome = Outcome::kPending;
  return out;
}

bool ErasureTier::leads_repair(ObjectId object) const {
  // Chunk-index order is rank order, so the first alive stripe member is
  // this node exactly when this node is alive, ranks inside the stripe and
  // every member outranking it is dead.  Outranking is TopScores' order: a
  // higher score, or an equal score at a smaller position.
  if (!enabled_ || self_pos_ == kNoMember || dead_[self_pos_] != 0) return false;
  const std::uint64_t seed = store_->config().seed;
  const std::uint64_t own = stripe_score(object, self_, seed);
  const int width = stripe_width();
  int above = 0;
  for (std::uint32_t pos = 0; pos < members_.size(); ++pos) {
    if (pos == self_pos_) continue;
    const std::uint64_t score = stripe_score(object, members_[pos], seed);
    if (score < own || (score == own && pos > self_pos_)) continue;
    if (dead_[pos] == 0 || ++above == width) return false;
  }
  return true;
}

void ErasureTier::enqueue_repair_for(ObjectId object, std::uint64_t chunk_bytes) {
  // The repair leader is the first *alive* member of the original stripe
  // in chunk-index order — every survivor computes the same leader from
  // its own believed dead set, so exactly one node drives each stripe's
  // repair (modulo transient disagreement, which idempotent offers absorb).
  // Most held chunks belong to stripes another survivor leads, so the rank
  // test runs first and only leaders pay for placement.
  if (!leads_repair(object)) return;
  const Stripe peers = place(object);
  const Stripe owners = current_owners(object, peers);
  for (int i = 0; i < peers.width; ++i) {
    if (dead_[peers.at[i]] == 0) continue;      // original owner still alive
    if (owners.at[i] == kNoMember) continue;    // no eligible replacement
    RepairItem item;
    item.object = object;
    item.index = i;
    item.target = members_[owners.at[i]];
    item.dead_owner = members_[peers.at[i]];
    item.bytes = chunk_bytes;
    repair_.enqueue(item);
  }
}

void ErasureTier::restripe_round(sim::Transport& net) {
  if (!restripe_enabled_) return;
  repair_.next_round([&](const RepairItem& item) {
    sim::Message offer;
    offer.kind = sim::MessageKind::kRestripeOffer;
    offer.object = item.object;
    offer.sender = self_;
    offer.target = item.target;
    offer.resolver = static_cast<NodeId>(item.index);  // chunk index to adopt
    offer.payload_bytes = item.bytes;
    net.send(offer);
  });
}

void ErasureTier::on_restripe_offer(sim::Transport& net, const sim::Message& msg) {
  if (!enabled_) return;
  if (record_chunk(msg.object, static_cast<int>(msg.resolver), msg.payload_bytes)) {
    ++stats_.restripe_adopted;
  }
  // Ack even when the directory budget refused the chunk: re-offering the
  // same oversized chunk every round until abandonment helps nobody, and
  // the post-run stripe census reports reality either way.
  sim::Message ack;
  ack.kind = sim::MessageKind::kRestripeAck;
  ack.object = msg.object;
  ack.sender = self_;
  ack.target = msg.sender;
  ack.resolver = msg.resolver;  // chunk index echoed back
  net.send(ack);
}

void ErasureTier::on_restripe_ack(const sim::Message& msg) {
  if (!restripe_enabled_) return;
  RepairItem item;
  if (!repair_.acked(msg.object, static_cast<int>(msg.resolver), &item)) return;
  if (item.hand_back) {
    // The original owner holds its chunk again; drop the foster copy
    // (unless the slot was since reused for a different index).
    const auto slot = directory_.find(msg.object);
    if (slot != directory_.kNil && directory_[slot].index == item.index) drop_chunk(msg.object);
    ++stats_.restripe_handbacks;
  } else {
    ++stats_.stripes_healed;
  }
}

void ErasureTier::handle_peer_dead(NodeId peer) {
  const std::uint32_t pos = position_of(peer);
  if (pos == kNoMember) return;
  if (dead_[pos] == 0) {
    dead_[pos] = 1;
    ++dead_count_;
  }
  if (!restripe_enabled_) return;
  // Prospective-leader scan over the local directory, in LRU order (so the
  // scan — and therefore the repair queue — is deterministic).  Every
  // dead-owned index of every held object is (re-)enqueued: a second death
  // that reassigns replacements simply retargets the queued item.
  for (auto slot = directory_.front(); slot != directory_.kNil; slot = directory_.next(slot)) {
    enqueue_repair_for(directory_[slot].object, directory_[slot].bytes);
  }
}

void ErasureTier::handle_peer_joined(NodeId peer) {
  const std::uint32_t pos = position_of(peer);
  if (pos == kNoMember) return;
  if (dead_[pos] != 0) {
    dead_[pos] = 0;
    --dead_count_;
  }
  if (!restripe_enabled_) return;
  // Repair work created by this peer's death is moot — it holds its
  // chunks again (its directory survived, only our belief changed).
  repair_.cancel_for_dead_owner(peer);
  // Hand adopted chunks back: any directory entry whose index belongs to
  // the rejoiner in the *original* stripe is a foster copy we took on its
  // behalf — offer it back and drop ours once the owner acks.
  for (auto slot = directory_.front(); slot != directory_.kNil; slot = directory_.next(slot)) {
    const DirEntry& entry = directory_[slot];
    const Stripe peers = place(entry.object);
    if (entry.index < 0 || entry.index >= peers.width) continue;
    if (peers.at[entry.index] != pos) continue;
    RepairItem item;
    item.object = entry.object;
    item.index = entry.index;
    item.target = peer;
    item.bytes = entry.bytes;
    item.hand_back = true;
    repair_.enqueue(item);
  }
}

}  // namespace adc::store
