#include "hash/consistent_hash.h"

#include <cassert>

#include "hash/fnv.h"
#include "hash/md5.h"

namespace adc::hash {

void ConsistentHashRing::add_member(NodeId node, std::string_view name) {
  ++members_;
  for (int replica = 0; replica < vnodes_; ++replica) {
    const std::string point_name = std::string(name) + "#" + std::to_string(replica);
    ring_.emplace(Md5::digest64(point_name), node);
  }
}

NodeId ConsistentHashRing::owner(ObjectId oid) const noexcept {
  assert(!ring_.empty());
  const std::uint64_t point = fnv1a64_u64(oid);
  auto it = ring_.lower_bound(point);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

}  // namespace adc::hash
