// Proactive re-stripe repair: the work queue behind the erasure tier's
// background healing.
//
// A confirmed death leaves every stripe the dead peer belonged to at
// width k + 1 — one more death (or a single directory eviction) and the
// object is no longer reconstructible.  The repair pass closes that
// window: for each affected stripe the first surviving peer in stripe
// order (the *repair leader*, deterministic without coordination) offers
// the lost chunk to a replacement owner chosen by rendezvous over the
// members outside the stripe, and the replacement records it, restoring
// the stripe to full k + 2 width.
//
// This file holds the transport-free half of that machinery: a FIFO of
// repair work items drained in byte-budgeted rounds, with per-item retry
// (an offer or its ack may be lost) and abandonment (an unreachable
// replacement must not keep the scheduler armed forever).  The
// ErasureTier owns a planner and turns popped items into kRestripeOffer
// messages; membership's anti-entropy rounds decide *when* a round runs,
// the planner decides *what* it sends — mirroring the RepairScheduler /
// agent split one layer up.
//
// Rejoin reconciliation rides the same queue: when a dead peer returns,
// survivors holding chunks adopted on its behalf offer them back
// (`hand_back` items) and drop their foster copy once the original owner
// acks, so a heal-then-rejoin ends with exactly one holder per chunk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "util/keyed_list.h"
#include "util/types.h"

namespace adc::store {

struct RestripeStats {
  std::uint64_t items_enqueued = 0;
  std::uint64_t items_cancelled = 0;  // mooted by a rejoin before completing
  std::uint64_t items_abandoned = 0;  // retries exhausted
  std::uint64_t offers_sent = 0;
  std::uint64_t retries = 0;          // offers re-sent after an unacked round
  std::uint64_t rounds = 0;           // rounds that sent at least one offer
  std::uint64_t repair_bytes = 0;     // chunk bytes offered, budget-charged
  std::uint64_t round_bytes_max = 0;  // largest single round (budget audit)
};

/// Most offers a repair item may make (RepairItem::attempts is 8 bits);
/// configs enforce repair_max_attempts in [1, kMaxRepairAttempts].
inline constexpr int kMaxRepairAttempts = UINT8_MAX;

/// One pending re-home: chunk `index` of `object` (sized `bytes`) should
/// live at `target`.  `dead_owner` is the peer whose death created the
/// item (kInvalidNode for rejoin hand-backs); `hand_back` items drop the
/// local foster copy when acked instead of counting a healed stripe.
///
/// 24 bytes, so a queue row is 32: every field is as wide as its range.
/// `bytes` is a directory chunk's (32 bits, see ErasureTier), `index` is
/// below the stripe width (at most 64) and `attempts` at most
/// kMaxRepairAttempts.
struct RepairItem {
  ObjectId object = 0;
  std::uint32_t bytes = 0;
  NodeId target = kInvalidNode;
  NodeId dead_owner = kInvalidNode;
  std::int16_t index = 0;
  bool hand_back = false;
  std::uint8_t attempts = 0;

  /// Queue key: one item per (object, chunk index).
  static std::uint64_t key_of(ObjectId object, int index) noexcept {
    return object * 131ULL + static_cast<std::uint64_t>(index);
  }
  std::uint64_t key() const noexcept { return key_of(object, index); }
};
static_assert(sizeof(util::KeyedList<RepairItem>::Row) == 32, "a repair-queue row is 32 bytes");

/// FIFO repair queue with byte-budgeted rounds and bounded retry.  Items
/// are keyed by (object, index): re-enqueueing refreshes the target (a
/// later death may reassign the replacement) without duplicating work.
class RestripePlanner {
 public:
  /// `max_attempts` is clamped to [1, kMaxRepairAttempts].
  RestripePlanner(std::uint64_t bytes_per_round, int max_attempts)
      : bytes_per_round_(bytes_per_round),
        max_attempts_(std::clamp(max_attempts, 1, kMaxRepairAttempts)) {}

  /// Queues (or retargets) a work item.  Acked or unknown keys enqueue
  /// fresh; an item already queued for the same chunk is updated in place.
  void enqueue(const RepairItem& item);

  /// Drops queued items created by `dead_owner`'s death — its rejoin
  /// makes them moot (the original owner holds the chunk again).
  void cancel_for_dead_owner(NodeId dead_owner);

  /// One round: pops items in FIFO order while the byte budget lasts
  /// (at least one item always goes out, so a chunk larger than the
  /// budget cannot wedge the queue) and hands each to `offer`.  Items
  /// stay queued awaiting their ack — re-offered next round, abandoned
  /// after max_attempts.  Returns the bytes offered this round.
  std::uint64_t next_round(const std::function<void(const RepairItem&)>& offer);

  /// Retires the item for (object, index); returns true and copies it to
  /// `*out` (when non-null) if one was in flight.
  bool acked(ObjectId object, int index, RepairItem* out = nullptr);

  bool pending() const noexcept { return !queue_.empty(); }
  std::size_t queued() const noexcept { return queue_.size(); }
  const RestripeStats& stats() const noexcept { return stats_; }

 private:
  std::uint64_t bytes_per_round_;
  int max_attempts_;
  /// FIFO of un-acked work, one item per (object, index); offered items
  /// cycle to the back.
  util::KeyedList<RepairItem> queue_;
  RestripeStats stats_;
};

}  // namespace adc::store
