// Consistent hashing ring (Karger et al., STOC '97) with virtual nodes.
//
// Provided as an additional hashing baseline (the paper cites consistent
// hashing alongside CARP) and for the ablation comparing allocation schemes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/types.h"

namespace adc::hash {

class ConsistentHashRing {
 public:
  /// `vnodes` replicas per member smooth the key distribution.
  explicit ConsistentHashRing(int vnodes = 64) : vnodes_(vnodes) {}

  void add_member(NodeId node, std::string_view name);

  std::size_t member_count() const noexcept { return members_; }
  bool empty() const noexcept { return ring_.empty(); }

  /// Owner of an object id: first ring point clockwise from hash(oid).
  NodeId owner(ObjectId oid) const noexcept;

  /// Number of ring points (for tests).
  std::size_t ring_size() const noexcept { return ring_.size(); }

 private:
  int vnodes_;
  std::map<std::uint64_t, NodeId> ring_;
  std::size_t members_ = 0;
};

}  // namespace adc::hash
