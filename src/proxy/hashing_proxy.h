// Hashing-based distributed caching baselines (paper Section V.1.1).
//
// One proxy class covers CARP, consistent hashing and rendezvous hashing:
// the allocation scheme is abstracted behind OwnerMap.  Protocol, following
// the paper's description of its CARP baseline:
//   1. the entry proxy checks its local cache;
//   2. on miss it forwards to the hash owner;
//   3. the owner checks its cache; on miss it fetches from the origin and
//      caches under LRU (policy configurable);
//   4. the reply goes *directly to the client, bypassing the first proxy*.
// An optional entry-caching mode routes the reply through the entry proxy
// (which then caches too) for the baseline ablation.
//
// With the payload store enabled the proxy additionally (a) accounts every
// hit/fetch in bytes, (b) evicts under a byte budget with size-aware
// policies, and (c) hosts an erasure tier: owners stripe fetched objects
// across peers, and once SWIM confirms a member dead, a miss on an object
// whose chunks survive is answered by a degraded read (reconstruction from
// k surviving chunks) instead of an origin refetch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/policies.h"
#include "hash/carp.h"
#include "hash/consistent_hash.h"
#include "hash/rendezvous.h"
#include "sim/proxy_agent.h"
#include "sim/transport.h"
#include "store/erasure_tier.h"
#include "store/payload.h"
#include "util/keyed_list.h"
#include "util/types.h"

namespace adc::proxy {

/// Global object-to-proxy allocation function shared by all members.
class OwnerMap {
 public:
  virtual ~OwnerMap() = default;
  virtual NodeId owner(ObjectId object) const = 0;
};

class CarpOwnerMap final : public OwnerMap {
 public:
  explicit CarpOwnerMap(hash::CarpArray array) : array_(std::move(array)) {}
  NodeId owner(ObjectId object) const override { return array_.owner(object); }
  const hash::CarpArray& array() const noexcept { return array_; }

 private:
  hash::CarpArray array_;
};

class RingOwnerMap final : public OwnerMap {
 public:
  explicit RingOwnerMap(hash::ConsistentHashRing ring) : ring_(std::move(ring)) {}
  NodeId owner(ObjectId object) const override { return ring_.owner(object); }

 private:
  hash::ConsistentHashRing ring_;
};

class RendezvousOwnerMap final : public OwnerMap {
 public:
  explicit RendezvousOwnerMap(hash::RendezvousHash hrw) : hrw_(std::move(hrw)) {}
  NodeId owner(ObjectId object) const override { return hrw_.owner(object); }

 private:
  hash::RendezvousHash hrw_;
};

struct HashingProxyStats {
  std::uint64_t requests_received = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t forwards_to_owner = 0;
  std::uint64_t forwards_to_origin = 0;
  std::uint64_t owned_objects_served = 0;
  std::uint64_t degraded_replies = 0;  // origin replies relayed for requests that
                                       // were rerouted around a dead owner
  std::uint64_t membership_epoch = 0;  // confirmed membership transitions applied
                                       // (each one rebuilds the owner map)
  double max_reshuffle_fraction = 0.0;  // worst share of sampled objects whose
                                        // owner moved in one rebuild

  // Byte accounting (0 while the payload store is disabled).
  std::uint64_t payload_bytes_served = 0;   // bytes of hits + degraded reads
  std::uint64_t payload_bytes_fetched = 0;  // bytes fetched from the origin
  std::uint64_t degraded_reads_served = 0;  // misses answered by reconstruction
};

class HashingProxy final : public sim::ProxyAgent {
 public:
  /// Rebuilds an OwnerMap from a membership (ids of the live proxies).
  /// Captures whatever naming / load-factor context the scheme needs.
  using OwnerMapFactory =
      std::function<std::shared_ptr<const OwnerMap>(const std::vector<NodeId>&)>;

  /// Objects sampled when measuring how much of the key space a rebuild
  /// reshuffled (ids 0..kReshuffleSample-1 stand in for the URL space).
  static constexpr ObjectId kReshuffleSample = 4096;

  /// `owners` is shared by every member proxy.  `cache_capacity` matches
  /// the ADC caching-table size for a fair hit-rate comparison.
  HashingProxy(NodeId id, std::string name, std::shared_ptr<const OwnerMap> owners,
               NodeId origin, std::size_t cache_capacity,
               cache::Policy policy = cache::Policy::kLru, bool entry_caching = false);

  void on_message(sim::Transport& net, const sim::Message& msg) override;

  const HashingProxyStats& stats() const noexcept { return stats_; }
  const cache::CacheSet& cache() const noexcept { return *cache_; }
  std::size_t pending() const noexcept { return pending_.size(); }

  /// Attaches the payload store: replaces the cache with a byte-budgeted,
  /// size-aware variant of the same policy and (when the store's erasure
  /// config asks for it) hosts an ErasureTier over the deployment's
  /// proxies.  Must run before traffic starts.
  void enable_store(const store::StoreContext& ctx);

  store::ErasureTier* erasure_tier() const noexcept override { return erasure_.get(); }

  sim::ProxySnapshot snapshot(bool with_contents) const override;

  /// Fault injection: drops every cached object (cold restart; in-flight
  /// fetch routes survive).  Stripe-chunk *presence* survives a flush —
  /// chunk bytes are regenerable from the deterministic store, so the
  /// directory is the only state and a restarted daemon re-announces it.
  void flush() override { cache_->clear(); }

  /// Enables live membership: `members` is the full current membership
  /// (this proxy included) and `factory` recomputes the owner map from an
  /// updated membership.  Without a factory the startup owner map is fixed
  /// for the whole run (the pre-membership behaviour).
  void set_owner_map_factory(OwnerMapFactory factory, std::vector<NodeId> members);

  /// Confirmed membership change: removes/reinstates the peer and rebuilds
  /// the owner map, recording the fraction of sampled objects whose owner
  /// moved (the map stays fixed when no factory is installed).  The local
  /// cache is kept — entries the proxy no longer owns simply age out,
  /// mirroring what a real CARP member does.
  void on_peer_dead(NodeId peer) override;
  void on_peer_joined(NodeId peer) override;

 private:
  /// Recomputes owners_ from members_ and updates the reshuffle stats.
  void rebuild_owners();
  void receive_request(sim::Transport& net, const sim::Message& msg);
  void receive_reply(sim::Transport& net, const sim::Message& msg);
  void handle_chunk_reply(sim::Transport& net, const sim::Message& msg);
  void send_reply_toward_client(sim::Transport& net, sim::Message reply, NodeId entry);

  std::shared_ptr<const OwnerMap> owners_;
  OwnerMapFactory factory_;
  std::vector<NodeId> members_;  // sorted; only maintained once a factory is set
  NodeId origin_;
  std::size_t cache_capacity_;
  cache::Policy policy_;
  std::unique_ptr<cache::CacheSet> cache_;
  bool entry_caching_;

  store::PayloadStorePtr store_;
  std::unique_ptr<store::ErasureTier> erasure_;

  /// Owner-side state for in-flight origin fetches: where the reply must
  /// be routed once the origin answers.
  struct Route {
    RequestId request = 0;
    NodeId client = kInvalidNode;
    NodeId entry = kInvalidNode;  // kInvalidNode when we were the entry
    std::uint64_t key() const noexcept { return request; }
  };
  util::KeyedList<Route> pending_;

  std::uint64_t size_of(ObjectId object) const {
    return store_ == nullptr ? 0 : store_->size_of(object);
  }

  HashingProxyStats stats_;
};

}  // namespace adc::proxy
