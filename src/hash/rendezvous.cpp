#include "hash/rendezvous.h"

#include <cassert>
#include <cmath>

#include "hash/fnv.h"
#include "hash/md5.h"

namespace adc::hash {

void RendezvousHash::add_member(NodeId node, std::string_view name, double weight) {
  assert(weight > 0.0);
  members_.push_back(Member{node, Md5::digest64(name), weight});
}

NodeId RendezvousHash::owner(ObjectId oid) const noexcept {
  assert(!members_.empty());
  NodeId best = members_.front().node;
  double best_score = -1.0;
  for (const Member& m : members_) {
    const std::uint64_t mixed = fnv1a64_u64(oid ^ m.salt);
    // Weighted rendezvous (logarithm method): score = -w / ln(u),
    // u uniform in (0, 1) derived from the mixed hash.
    const double u = (static_cast<double>(mixed >> 11) + 0.5) * 0x1.0p-53;
    const double score = -m.weight / std::log(u);
    if (score > best_score) {
      best_score = score;
      best = m.node;
    }
  }
  return best;
}

}  // namespace adc::hash
