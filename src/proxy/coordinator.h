// Central-coordinator load balancer — the paper's first-generation system
// (Section II.1, reference [26]) kept as a baseline.
//
// The coordinator fronts all proxies: every client request passes through
// it, it dispatches to the proxy with the best learned performance score
// (epsilon-greedy), observes the response time of the reply on its way
// back, and reinforces the score.  Content placement is not considered —
// exactly the limitation that motivated SOAP and ADC.  Backend proxies are
// plain CacheNodes with upstream = origin.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/node.h"
#include "sim/transport.h"
#include "util/types.h"

namespace adc::proxy {

struct CoordinatorConfig {
  /// Probability of exploring a uniformly random proxy instead of the
  /// current best.
  double epsilon = 0.05;
};

struct CoordinatorStats {
  std::uint64_t dispatched = 0;
  std::uint64_t explored = 0;
  std::uint64_t replies_relayed = 0;
  std::uint64_t orphan_replies = 0;  // replies with no dispatch record
                                     // (duplicates), dropped
};

class Coordinator final : public sim::Node {
 public:
  Coordinator(NodeId id, std::string name, std::vector<NodeId> proxies,
              CoordinatorConfig config = {});

  void on_message(sim::Transport& net, const sim::Message& msg) override;

  const CoordinatorStats& stats() const noexcept { return stats_; }

  /// Learned performance score of a backend (higher is better).
  double score(NodeId proxy) const noexcept;

  std::size_t pending() const noexcept { return pending_.size(); }

 private:
  NodeId pick_proxy(sim::Transport& net);
  void reinforce(NodeId proxy, SimTime response_time);

  std::vector<NodeId> proxies_;
  CoordinatorConfig config_;
  std::unordered_map<NodeId, double> scores_;

  struct Dispatch {
    NodeId client = kInvalidNode;
    NodeId proxy = kInvalidNode;
    SimTime sent_at = 0;
  };
  std::unordered_map<RequestId, Dispatch> pending_;

  CoordinatorStats stats_;
};

}  // namespace adc::proxy
