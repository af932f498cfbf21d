// Cache Array Routing Protocol (CARP) v1.1 membership hashing.
//
// Implements the hash functions of the CARP Internet-Draft (Cohen, Phadnis,
// Valloppillil, Ross, 1997) that the paper uses as its hashing baseline:
// a rotate-add URL hash, a scrambled member-proxy hash, the XOR+scramble
// combination, and highest-score owner selection with optional load
// factors.  Deterministic across platforms (pure 32-bit arithmetic).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace adc::hash {

/// Rotate-add hash over a URL (draft section 3.1).
std::uint32_t carp_url_hash(std::string_view url) noexcept;

/// Member proxy hash: rotate-add over the name plus a final scramble
/// (draft section 3.2).
std::uint32_t carp_member_hash(std::string_view proxy_name) noexcept;

/// Combines a URL hash with a member hash (draft section 3.3).
std::uint32_t carp_combine(std::uint32_t url_hash, std::uint32_t member_hash) noexcept;

/// The name every deployment gives proxy `id`: "proxy[id]".  CARP, the
/// ring and HRW hash member names, so the simulator, the daemons and the
/// adversarial key miner agree on object ownership only by sharing it.
std::string member_name(NodeId id);

/// A CARP hash array: a fixed membership of proxies with relative load
/// factors.  `owner()` returns the member with the highest combined score
/// for a URL; ties break toward the lower index (deterministic).
class CarpArray {
 public:
  struct Member {
    std::string name;
    NodeId node = kInvalidNode;
    double load_factor = 1.0;  // relative capacity share
  };

  CarpArray() = default;

  /// Builds the array; load factors are normalized internally following the
  /// draft's multiplicative-correction scheme.
  explicit CarpArray(std::vector<Member> members);

  std::size_t size() const noexcept { return members_.size(); }
  bool empty() const noexcept { return members_.empty(); }
  const Member& member(std::size_t i) const noexcept { return members_[i]; }

  /// Index of the owning member for a URL; requires a non-empty array.
  std::size_t owner_index(std::string_view url) const noexcept;
  NodeId owner(std::string_view url) const noexcept;

  /// Owner for a pre-hashed object id (the simulation's hot path): the id
  /// stands in for the URL hash.
  std::size_t owner_index(ObjectId oid) const noexcept;
  NodeId owner(ObjectId oid) const noexcept;

 private:
  std::size_t select(std::uint32_t url_hash) const noexcept;

  std::vector<Member> members_;
  std::vector<std::uint32_t> member_hashes_;
  std::vector<double> multipliers_;  // normalized load-factor multipliers
};

}  // namespace adc::hash
