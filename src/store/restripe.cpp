#include "store/restripe.h"

namespace adc::store {

void RestripePlanner::enqueue(const RepairItem& item) {
  const auto slot = queue_.find(item.key());
  if (slot != queue_.kNil) {
    // Already queued: refresh the target (a later death may have moved
    // the replacement) but keep the queue position and attempt count.
    RepairItem& queued = queue_[slot];
    queued.target = item.target;
    queued.dead_owner = item.dead_owner;
    queued.hand_back = item.hand_back;
    return;
  }
  queue_.push_back(item);
  ++stats_.items_enqueued;
}

void RestripePlanner::cancel_for_dead_owner(NodeId dead_owner) {
  for (auto slot = queue_.front(); slot != queue_.kNil;) {
    const auto next = queue_.next(slot);
    if (queue_[slot].dead_owner == dead_owner) {
      queue_.erase(slot);
      ++stats_.items_cancelled;
    }
    slot = next;
  }
}

std::uint64_t RestripePlanner::next_round(const std::function<void(const RepairItem&)>& offer) {
  std::uint64_t sent_bytes = 0;
  std::size_t sent = 0;
  // Walk at most the items present when the round started: offered items
  // cycle to the back and must not be re-visited within one round.
  std::size_t budget_items = queue_.size();
  while (budget_items-- > 0 && !queue_.empty()) {
    const auto slot = queue_.front();
    RepairItem& item = queue_[slot];
    if (bytes_per_round_ > 0 && sent > 0 && sent_bytes + item.bytes > bytes_per_round_) break;
    if (item.attempts >= max_attempts_) {
      queue_.erase(slot);
      ++stats_.items_abandoned;
      ++budget_items;  // abandoning costs no budget; keep scanning
      continue;
    }
    if (item.attempts > 0) ++stats_.retries;
    ++item.attempts;
    sent_bytes += item.bytes;
    ++sent;
    ++stats_.offers_sent;
    stats_.repair_bytes += item.bytes;
    offer(item);
    queue_.move_to_back(slot);  // await the ack at the back
  }
  if (sent > 0) {
    ++stats_.rounds;
    if (sent_bytes > stats_.round_bytes_max) stats_.round_bytes_max = sent_bytes;
  }
  return sent_bytes;
}

bool RestripePlanner::acked(ObjectId object, int index, RepairItem* out) {
  const auto slot = queue_.find(RepairItem::key_of(object, index));
  if (slot == queue_.kNil) return false;
  const RepairItem item = queue_.erase(slot);
  if (out != nullptr) *out = item;
  return true;
}

}  // namespace adc::store
