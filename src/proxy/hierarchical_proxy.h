// Hierarchical caching node (paper Section I / the hierarchical family the
// paper positions ADC against).
//
// A CacheNode caches every object that passes through it (admit-all, LRU by
// default) and forwards misses to a fixed upstream node — its parent in a
// cache hierarchy, or the origin server at the top.  Chaining CacheNodes
// builds arbitrary-depth hierarchies; the driver uses one root over leaf
// proxies for the classic 2-level setup.  The coordinator baseline reuses
// this class for its backend proxies (upstream = origin).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/policies.h"
#include "sim/proxy_agent.h"
#include "sim/pending_records.h"
#include "sim/transport.h"
#include "store/payload.h"
#include "util/types.h"

namespace adc::proxy {

struct CacheNodeStats {
  std::uint64_t requests_received = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t forwards_upstream = 0;
  std::uint64_t orphan_replies = 0;  // replies with no pending record
                                     // (duplicates), dropped
  // Byte accounting (0 while the payload store is disabled).
  std::uint64_t payload_bytes_served = 0;   // bytes of local hits
  std::uint64_t payload_bytes_fetched = 0;  // bytes fetched from upstream
};

class CacheNode final : public sim::ProxyAgent {
 public:
  CacheNode(NodeId id, std::string name, NodeId upstream, std::size_t cache_capacity,
            cache::Policy policy = cache::Policy::kLru);

  void on_message(sim::Transport& net, const sim::Message& msg) override;

  const CacheNodeStats& stats() const noexcept { return stats_; }
  const cache::CacheSet& cache() const noexcept { return *cache_; }
  std::size_t pending() const noexcept { return pending_.size(); }

  sim::ProxySnapshot snapshot(bool with_contents) const override;

  /// Attaches the payload store: byte-budgeted, size-aware cache of the
  /// same policy plus per-hit byte accounting.  Hierarchies carry no
  /// erasure tier — degraded reads are a flat-membership construct.
  void enable_store(const store::StoreContext& ctx);

  /// Fault injection: drops every cached object (cold restart; in-flight
  /// fetch routes survive).
  void flush() override { cache_->clear(); }

 private:
  NodeId upstream_;
  std::size_t cache_capacity_;
  cache::Policy policy_;
  std::unique_ptr<cache::CacheSet> cache_;
  store::PayloadStorePtr store_;

  /// Requesters awaiting a reply, per request id (a stack for the corner
  /// case of the same id traversing twice, which cannot happen in a tree
  /// but keeps the invariant local).
  sim::PendingRecords pending_;

  CacheNodeStats stats_;
};

}  // namespace adc::proxy
