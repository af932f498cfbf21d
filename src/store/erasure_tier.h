// Erasure-coded payload tier: stripe registration, chunk directory, and
// the degraded-read state machine.
//
// When a proxy fetches an object from the origin it *stripes* the payload:
// the RDP stripe (k data chunks + row/diagonal parity, see rdp_coding.h)
// is assigned to k + 2 peers chosen by rendezvous hashing over the startup
// membership, and each peer records "I hold chunk i of object o" in its
// chunk directory.  Chunk content is a pure function of (object, seed), so
// the directory stores presence and byte accounting, never bytes — any
// holder can rematerialize its chunk on demand (store::PayloadStore).
//
// After SWIM confirms a peer death, a request that would otherwise fall
// back to the origin instead starts a *degraded read*: chunk requests go
// to the surviving stripe peers, and once any k chunks are confirmed the
// object is reconstructible and the proxy answers the client directly,
// charging recovered bytes instead of origin bytes.  A shortfall (too few
// survivors, chunks evicted from directories) falls back to the origin.
//
// With proactive re-stripe repair enabled (ErasureConfig::restripe) the
// tier additionally *heals* after a death instead of running degraded
// forever: the first surviving peer of each affected stripe (the repair
// leader — deterministic, no coordination) offers the dead peer's chunk to
// a replacement owner chosen by rendezvous over the members outside the
// stripe, in byte-budgeted rounds driven by membership anti-entropy
// (src/store/restripe.h).  Once the replacement acks, the stripe is back
// at full k + 2 width and a *second* death no longer erases the two-loss
// safety margin.  A rejoin cancels repair work it moots and hands adopted
// chunks back to the original owner, so heal-then-rejoin converges to
// exactly one holder per chunk.  Repair off (the default) keeps the tier
// bit-identical to the repair-free build.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.h"
#include "sim/transport.h"
#include "store/payload.h"
#include "store/rdp_coding.h"
#include "store/restripe.h"
#include "util/flat_index.h"
#include "util/keyed_list.h"
#include "util/types.h"

namespace adc::store {

/// Widest stripe any tier places: k + 2 chunks with k at RdpCode's cap.
inline constexpr int kMaxStripeWidth = RdpCode::kMaxDataChunks + 2;

/// Stripe placement's selection step: keeps the `width` highest-scoring
/// candidates in a fixed array, highest first.  Candidates must be offered
/// in ascending position order; equal scores keep offer order, so the
/// result is exactly the first `width` entries of a sort by (score
/// descending, position ascending) — the rendezvous tie-break to the
/// smaller member id — without sorting or allocating.
class TopScores {
 public:
  /// `width` in [1, kMaxStripeWidth].
  explicit TopScores(int width) noexcept : width_(width) {}

  void offer(std::uint64_t score, std::uint32_t position) noexcept {
    if (size_ == width_ && score <= score_[size_ - 1]) return;
    int i = size_ < width_ ? size_++ : size_ - 1;
    for (; i > 0 && score_[i - 1] < score; --i) {
      score_[i] = score_[i - 1];
      position_[i] = position_[i - 1];
    }
    score_[i] = score;
    position_[i] = position;
  }

  int size() const noexcept { return size_; }
  std::uint32_t position(int rank) const noexcept { return position_[rank]; }

 private:
  int width_;
  int size_ = 0;
  std::array<std::uint64_t, kMaxStripeWidth> score_;
  std::array<std::uint32_t, kMaxStripeWidth> position_;
};

struct ErasureStats {
  std::uint64_t stripes_registered = 0;  // origin fetches striped by this node
  std::uint64_t chunks_stored = 0;       // kStripeStore records accepted
  std::uint64_t chunks_evicted = 0;      // directory-budget evictions
  std::uint64_t chunk_requests_sent = 0;
  std::uint64_t chunk_replies_served = 0;  // replies with the chunk present
  std::uint64_t chunk_replies_missing = 0;
  std::uint64_t chunk_bytes_sent = 0;  // bytes of chunks served to peers
  std::uint64_t degraded_started = 0;
  std::uint64_t degraded_recovered = 0;
  std::uint64_t degraded_failed = 0;   // shortfall -> origin fallback
  std::uint64_t recovered_bytes = 0;   // full object bytes answered degraded
  std::uint64_t chunk_requests_skipped = 0;  // survivors not asked because the
                                             // load probe preferred lighter peers

  // --- Proactive re-stripe repair (leaders and replacements) ------------
  std::uint64_t stripes_healed = 0;      // repair offers acked (leader side)
  std::uint64_t restripe_adopted = 0;    // offers accepted into the directory
  std::uint64_t restripe_handbacks = 0;  // rejoin hand-backs completed (foster
                                         // copy dropped after the owner acked)
};

class ErasureTier {
 public:
  /// `members` is the stripe universe (every proxy, sorted); stripes are
  /// deterministic in it, so all nodes must pass the same list.
  ErasureTier(NodeId self, PayloadStorePtr store, std::vector<NodeId> members);

  bool enabled() const noexcept { return enabled_; }
  int stripe_width() const noexcept { return store_->code().stripe_width(); }
  int data_chunks() const noexcept { return store_->code().k(); }
  const ErasureStats& stats() const noexcept { return stats_; }

  /// True once any member has been reported dead and not rejoined —
  /// the gate that keeps healthy runs free of recovery traffic.
  bool has_dead_peer() const noexcept { return dead_count_ != 0; }

  /// The k+2 stripe peers of `object` in chunk-index order (rendezvous
  /// over the startup membership).  Empty when the membership is smaller
  /// than the stripe width.  Placement is *always* deterministic — every
  /// node must compute the same stripe without coordination — so link-load
  /// feedback only steers the recovery side (see set_load_probe), never
  /// where chunks live.
  std::vector<NodeId> stripe_peers(ObjectId object) const;

  /// Current owner per chunk index under the believed dead set: the
  /// original stripe peer while it is alive, else the replacement chosen
  /// by a secondary rendezvous over the alive members *outside* the
  /// stripe (greedy in index order, so no member is assigned two chunks
  /// of one object — the chunk directory is keyed by object).  An index
  /// with no eligible replacement maps to kInvalidNode.  Deterministic in
  /// (object, dead set): leaders, replacements and recovering readers all
  /// agree without coordination.
  std::vector<NodeId> effective_owners(ObjectId object) const;

  /// Egress-load oracle for degraded reads: returns the current transfer
  /// backlog (bytes queued at `peer`'s uplink; src/link supplies it in the
  /// sim).  With a probe installed, begin_recovery asks only the k - have
  /// lightest-loaded survivors plus one spare instead of every survivor,
  /// so recovery traffic lands on lightly loaded stripe peers.  With no
  /// probe (the default) recovery is bit-identical to the probe-free tier.
  using LoadProbe = std::function<std::uint64_t(NodeId peer)>;
  void set_load_probe(LoadProbe probe) { load_probe_ = std::move(probe); }
  bool has_load_probe() const noexcept { return static_cast<bool>(load_probe_); }

  /// Registers the stripe for a freshly origin-fetched object: one
  /// kStripeStore per remote peer, a local directory record when this node
  /// is itself a stripe member.  Deduplicated per registrar.  With repair
  /// enabled and peers believed dead, dead owners' chunks go to their
  /// effective replacements instead, so new stripes are born full-width.
  void stripe_object(sim::Transport& net, ObjectId object);

  /// Handles kStripeStore / kChunkRequest addressed to this node.
  void on_stripe_store(const sim::Message& msg);
  void on_chunk_request(sim::Transport& net, const sim::Message& msg);

  /// Starts a degraded read for the client request `msg` (which was about
  /// to be forwarded to the origin).  Returns false — and records nothing —
  /// when the surviving stripe cannot possibly yield k chunks; the caller
  /// then proceeds to the origin as before.
  bool begin_recovery(sim::Transport& net, const sim::Message& msg);

  enum class Outcome : std::uint8_t {
    kNone,       // reply did not match an in-flight recovery (stale)
    kPending,    // still waiting for chunks
    kRecovered,  // >= k chunks confirmed: answer the client degraded
    kFailed,     // shortfall: fall back to the origin
  };
  struct Resolution {
    Outcome outcome = Outcome::kNone;
    sim::Message request;            // the original client request
    std::uint64_t object_bytes = 0;  // full payload size on kRecovered
  };

  /// Feeds a kChunkReply; on kRecovered/kFailed the recovery record is
  /// retired and the original request returned to the caller.
  Resolution on_chunk_reply(const sim::Message& msg);

  /// Membership hooks (same events the proxies receive).  Recoveries
  /// in flight toward a peer that dies unconfirmed resolve via the
  /// client's request timeout, like any other lost message.  Peers outside
  /// the stripe universe hold no chunks and are ignored.  With repair
  /// enabled, a death makes this node scan its directory as prospective
  /// repair leader, and a rejoin cancels mooted work and queues hand-back
  /// offers for chunks adopted on the rejoiner's behalf.
  void handle_peer_dead(NodeId peer);
  void handle_peer_joined(NodeId peer);

  // --- Proactive re-stripe repair ---------------------------------------

  /// True when the config enables background repair (and the tier itself
  /// is enabled).
  bool restripe_enabled() const noexcept { return restripe_enabled_; }

  /// Repair work still queued or awaiting acks on this node — drives the
  /// membership layer's decision to keep anti-entropy rounds armed.
  bool restripe_pending() const noexcept { return repair_.pending(); }
  std::size_t restripe_queued() const noexcept { return repair_.queued(); }
  const RestripeStats& restripe_stats() const noexcept { return repair_.stats(); }

  /// One byte-budgeted repair round: sends a kRestripeOffer per popped
  /// work item.  Called from the membership layer's anti-entropy cadence.
  void restripe_round(sim::Transport& net);

  /// Handles kRestripeOffer / kRestripeAck addressed to this node.
  void on_restripe_offer(sim::Transport& net, const sim::Message& msg);
  void on_restripe_ack(const sim::Message& msg);

  /// Directory introspection for tests and result collection.
  bool holds_chunk(ObjectId object) const { return directory_.contains(object); }
  std::uint64_t directory_bytes() const noexcept { return directory_bytes_; }
  std::size_t directory_entries() const noexcept { return directory_.size(); }

  /// Visits every directory entry as (object, chunk index, bytes), most
  /// recently used first — the driver's post-run stripe census walks these
  /// across all proxies.
  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    directory_.for_each(
        [&fn](const DirEntry& entry) { fn(entry.object, entry.index, entry.bytes); });
  }

 private:
  struct Recovery {
    sim::Message request;
    int have = 0;         // chunks confirmed (local + replied)
    int outstanding = 0;  // chunk requests not yet answered
    std::uint64_t key() const noexcept { return request.request_id; }
  };

  struct DirEntry {
    ObjectId object;
    std::uint64_t bytes;
    int index;
    std::uint64_t key() const noexcept { return object; }
  };

  /// Marks "no member": an index with no eligible replacement owner.
  static constexpr std::uint32_t kNoMember = UINT32_MAX;

  /// One object's stripe as positions into members_, chunk-index order.
  /// Lives on the stack: placement and owner scans never allocate.  Only
  /// the first `width` slots hold positions; the rest are left unset.
  struct Stripe {
    int width = 0;  // 0 while the tier is disabled
    std::array<std::uint32_t, kMaxStripeWidth> at;
  };

  /// The original placement (top stripe_width() rendezvous scores).
  Stripe place(ObjectId object) const;
  /// The placement with every dead owner replaced per effective_owners.
  Stripe current_owners(ObjectId object, const Stripe& stripe) const;

  NodeId node_at(std::uint32_t position) const noexcept {
    return position == kNoMember ? kInvalidNode : members_[position];
  }
  /// Position of `node` in members_, or kNoMember.
  std::uint32_t position_of(NodeId node) const noexcept;

  bool record_chunk(ObjectId object, int index, std::uint64_t bytes);
  void drop_chunk(ObjectId object);

  /// True when this node is `object`'s repair leader: the first alive
  /// member of place(object) in chunk-index order.  Decided from this
  /// node's rank alone, stopping at the first alive member that outranks
  /// it, without placing the stripe.
  bool leads_repair(ObjectId object) const;

  /// Enqueues repair work for every dead-owned chunk index of `object`
  /// when this node is the stripe's repair leader.  `chunk_bytes` is the
  /// held chunk's size (every chunk of a stripe has the same).  Idempotent:
  /// re-enqueueing retargets in place.
  void enqueue_repair_for(ObjectId object, std::uint64_t chunk_bytes);

  NodeId self_;
  std::uint32_t self_pos_ = kNoMember;  // position of self_ in members_
  PayloadStorePtr store_;
  std::vector<NodeId> members_;
  RestripePlanner repair_;
  bool enabled_;
  bool restripe_enabled_;
  LoadProbe load_probe_;

  std::vector<std::uint8_t> dead_;  // believed dead, per members_ position
  std::size_t dead_count_ = 0;
  util::FlatIndex striped_;  // stripes this node registered (object -> 0)

  // Chunk directory with LRU byte budget: front = most recent.
  util::KeyedList<DirEntry> directory_;
  std::uint64_t directory_bytes_ = 0;

  util::KeyedList<Recovery> recoveries_;  // by request id
  ErasureStats stats_;
};

}  // namespace adc::store
