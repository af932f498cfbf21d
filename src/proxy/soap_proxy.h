// SOAP — Self-Organized Adaptive Proxies (paper Section II.2, reference
// [10]): the authors' predecessor to ADC, kept as a baseline.
//
// Each proxy maps URL *categories* (domains) — not individual objects —
// onto proxy locations, learning from response-time feedback with an
// epsilon-greedy reinforcement rule.  Objects are cached admit-all under
// LRU at whichever proxy resolves them.  The paper's retrospective: the
// scheme needs many requests per category to converge and handles
// single-category hotspots poorly — the lessons that led to ADC's
// per-object tables and selective caching.  The baseline bench shows both
// effects.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/policies.h"
#include "sim/proxy_agent.h"
#include "sim/transport.h"
#include "util/types.h"

namespace adc::proxy {

/// Maps an object to its URL category (domain).  Shared by all proxies;
/// the workload layer supplies the real mapping.
class CategoryMap {
 public:
  explicit CategoryMap(std::size_t categories) : categories_(categories) {}

  std::size_t categories() const noexcept { return categories_; }
  std::size_t category_of(ObjectId object) const noexcept {
    return static_cast<std::size_t>(object % categories_);
  }

 private:
  std::size_t categories_;
};

struct SoapConfig {
  /// Exploration probability for the per-category location choice.
  double epsilon = 0.05;
};

struct SoapProxyStats {
  std::uint64_t requests_received = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t forwards_learned = 0;
  std::uint64_t forwards_explored = 0;
  std::uint64_t forwards_to_origin = 0;
  std::uint64_t orphan_replies = 0;  // replies with no pending record
                                     // (duplicates), dropped
};

class SoapProxy final : public sim::ProxyAgent {
 public:
  SoapProxy(NodeId id, std::string name, std::shared_ptr<const CategoryMap> categories,
            std::vector<NodeId> proxies, NodeId origin, std::size_t cache_capacity,
            SoapConfig config = {});

  void on_message(sim::Transport& net, const sim::Message& msg) override;

  const SoapProxyStats& stats() const noexcept { return stats_; }
  const cache::CacheSet& cache() const noexcept { return *cache_; }
  std::size_t pending() const noexcept { return pending_.size(); }

  sim::ProxySnapshot snapshot(bool with_contents) const override;

  /// Learned score for routing a category to a peer (tests/diagnostics).
  double score(std::size_t category, NodeId peer) const noexcept;

  /// Fault injection: drops the cache and resets every learned score (cold
  /// restart; in-flight fetch routes survive).
  void flush() override {
    cache_->clear();
    scores_.assign(scores_.size(), 0.5);
  }

 private:
  void receive_request(sim::Transport& net, const sim::Message& msg);
  void receive_reply(sim::Transport& net, const sim::Message& msg);
  NodeId pick_location(sim::Transport& net, std::size_t category);
  void reinforce(std::size_t category, NodeId peer, SimTime response_time);

  std::shared_ptr<const CategoryMap> categories_;
  std::vector<NodeId> proxies_;
  NodeId origin_;
  std::unique_ptr<cache::CacheSet> cache_;
  SoapConfig config_;

  /// scores_[category * proxies + index]: learned quality of sending that
  /// category to that peer.
  std::vector<double> scores_;

  struct PendingFetch {
    NodeId requester = kInvalidNode;
    NodeId forwarded_to = kInvalidNode;
    std::size_t category = 0;
    SimTime sent_at = 0;
  };
  std::unordered_map<RequestId, PendingFetch> pending_;

  SoapProxyStats stats_;
};

}  // namespace adc::proxy
