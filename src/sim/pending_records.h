// A proxy's pending-backwarding records (paper Section III.1): for every
// request it forwarded and has not yet answered, the stack of previous
// hops the reply must retrace — a stack because a looping request can pass
// through the same proxy more than once.
//
// Every forwarded request pushes one record and every relayed reply pops
// one, so the structure churns once per hop.  Records live in a recycled
// array of links, each naming its request, and a flat index maps each
// request to the top of its stack, reading the request id back from that
// link: after warm-up nothing allocates.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/flat_index.h"
#include "util/types.h"

namespace adc::sim {

class PendingRecords {
 public:
  /// Requests with at least one record.
  std::size_t size() const noexcept { return top_.size(); }

  bool contains(RequestId request) const noexcept { return top_.contains(request, KeyOf{this}); }

  /// Records that the reply to `request` must go back to `previous_hop`.
  /// Returns whether `request` already had a record — a request that
  /// revisits this node — so a caller's loop check costs no extra probe.
  bool push(RequestId request, NodeId previous_hop) {
    const std::uint32_t below = top_.find(request, KeyOf{this});
    std::uint32_t link = 0;
    if (free_ != kNil) {
      link = free_;
      free_ = links_[link].below;
    } else {
      link = static_cast<std::uint32_t>(links_.size());
      links_.emplace_back();
    }
    links_[link] = Link{request, previous_hop, below};
    top_.assign(request, link, KeyOf{this});
    return below != kNil;
  }

  /// Pops and returns the most recent record of `request`; requires
  /// contains(request).
  NodeId pop(RequestId request) {
    const std::uint32_t link = top_.find(request, KeyOf{this});
    assert(link != kNil);
    const Link popped = links_[link];
    if (popped.below == kNil) {
      top_.erase(request, link);
    } else {
      top_.assign(request, popped.below, KeyOf{this});
    }
    links_[link].below = free_;
    free_ = link;
    return popped.hop;
  }

 private:
  static constexpr std::uint32_t kNil = util::FlatIndex::kNone;

  struct Link {
    RequestId request = 0;
    NodeId hop = kInvalidNode;
    std::uint32_t below = kNil;  // next record of the same request (or next free link)
  };

  /// What the index reads a link's request id through.
  struct KeyOf {
    const PendingRecords* records;
    RequestId operator()(std::uint32_t link) const noexcept {
      return records->links_[link].request;
    }
  };

  util::FlatIndex top_;
  std::vector<Link> links_;
  std::uint32_t free_ = kNil;
};

}  // namespace adc::sim
