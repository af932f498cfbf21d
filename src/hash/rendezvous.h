// Rendezvous (highest-random-weight) hashing, with weighted variant.
//
// Third allocation baseline for the scheme-comparison ablation: every
// member scores each key and the highest score wins, giving minimal
// disruption on membership change without a ring structure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace adc::hash {

class RendezvousHash {
 public:
  struct Member {
    NodeId node = kInvalidNode;
    std::uint64_t salt = 0;  // derived from the member name
    double weight = 1.0;
  };

  void add_member(NodeId node, std::string_view name, double weight = 1.0);

  std::size_t member_count() const noexcept { return members_.size(); }
  bool empty() const noexcept { return members_.empty(); }

  /// Owner of an object id; requires a non-empty membership.
  NodeId owner(ObjectId oid) const noexcept;

 private:
  std::vector<Member> members_;
};

}  // namespace adc::hash
