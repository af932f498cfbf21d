// The ADC proxy agent (paper Section IV): reacts to incoming requests and
// replies, maintains the three mapping tables, and self-organizes with its
// peers purely through request forwarding and backwarding.
#pragma once

#include <cstdint>
#include <vector>

#include "core/adc_config.h"
#include "core/mapping_tables.h"
#include "cache/policies.h"
#include "sim/pending_records.h"
#include "sim/proxy_agent.h"
#include "sim/transport.h"
#include "store/erasure_tier.h"
#include "store/payload.h"
#include "util/types.h"

namespace adc::core {

struct AdcProxyStats {
  std::uint64_t requests_received = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t forwards_learned = 0;   // table lookup produced a peer
  std::uint64_t forwards_random = 0;    // no entry: random peer selection
  std::uint64_t forwards_origin = 0;    // THIS entry, loop or max-forwards
  std::uint64_t loops_detected = 0;
  std::uint64_t max_forwards_hit = 0;
  std::uint64_t replies_relayed = 0;
  std::uint64_t resolver_claims = 0;    // times this proxy set itself as resolver
  std::uint64_t cache_admissions = 0;   // objects newly admitted to the cache
  std::uint64_t orphan_replies = 0;     // replies with no pending record (duplicates
                                        // or post-restart arrivals), dropped
  std::uint64_t peer_invalidations = 0; // table entries aged out for dead peers
  std::uint64_t stale_claims_rejected = 0;  // updates dropped for an older claim
  std::uint64_t repair_offers = 0;          // anti-entropy opinions sent
  std::uint64_t repair_counter_offers = 0;  // fresher opinions pushed back
  std::uint64_t repairs_applied = 0;        // entries fixed by incoming opinions

  // Byte accounting (0 while the payload store is disabled).  Note that
  // forwards_origin counts origin-bound *decisions*; when the erasure tier
  // converts such a decision into a degraded read no origin message is
  // actually sent.
  std::uint64_t payload_bytes_served = 0;   // bytes of local hits + degraded reads
  std::uint64_t payload_bytes_fetched = 0;  // bytes this proxy fetched from origin
  std::uint64_t degraded_reads_started = 0;
  std::uint64_t degraded_reads_served = 0;
};

class AdcProxy final : public sim::ProxyAgent {
 public:
  /// `proxies` is the full membership (including this proxy's own id) used
  /// for random forwarding; `origin` terminates unresolved searches.
  AdcProxy(NodeId id, std::string name, const AdcConfig& config,
           std::vector<NodeId> proxies, NodeId origin);

  void on_message(sim::Transport& net, const sim::Message& msg) override;

  const AdcConfig& config() const noexcept { return config_; }
  const MappingTables& tables() const noexcept { return tables_; }
  const AdcProxyStats& stats() const noexcept { return stats_; }
  SimTime local_time() const noexcept { return local_time_; }

  /// True when the proxy holds the object's data: the selective caching
  /// table in normal mode, the LRU cache in the ABL-SEL ablation.
  bool is_locally_cached(ObjectId object) const noexcept;

  /// Outstanding backwarding records (must drain to 0 when idle).
  std::size_t pending_backwards() const noexcept { return pending_.size(); }

  /// Fault injection: wipes all learned state (mapping tables and cache)
  /// as if the proxy cold-restarted.  In-flight backwarding records are
  /// preserved — connectivity survives, data does not — so outstanding
  /// journeys still complete.
  void flush() override;

  /// Cache warming: makes this proxy a holder of the object without any
  /// message traffic (so peers learn nothing).
  void warm_cache(ObjectId object, std::uint64_t version = 0);

  /// Transport evidence that `peer` is down: drops every mapping entry
  /// that points at it, so lookups fall back to random forwarding instead
  /// of chasing a dead address.
  void on_peer_unreachable(NodeId peer) override;

  /// Confirmed membership change (failure detector callbacks).  Death
  /// removes the peer from the random-forwarding membership *and*
  /// invalidates entries naming it; a join reinstates it (sorted order is
  /// preserved so forwarding stays deterministic for a given rng stream).
  void on_peer_dead(NodeId peer) override;
  void on_peer_joined(NodeId peer) override;

  /// Test/operator prefill of a mapping entry (the table analogue of
  /// warm_cache): makes this proxy believe `object` resolves at
  /// `location` with the given claim, without any message traffic.
  void seed_location(ObjectId object, NodeId location, std::uint64_t claim = 0);

  /// Anti-entropy: sends up to `batch` resolver opinions (hottest caching
  /// and multiple-table entries with a nonzero claim) to `peer` as
  /// kRepairOffer messages.  The receiver adopts strictly fresher claims
  /// and pushes back its own opinion when it holds a strictly fresher one
  /// (one bounce, no further echo — convergence without storms).
  void send_repair(sim::Transport& net, NodeId peer, std::size_t batch) override;

  /// Attaches the payload store.  ABL-SEL mode swaps its admit-all LRU for
  /// the byte-budgeted size-aware variant (the selective-caching tables
  /// stay entry-counted — they are a mapping-table construct); when the
  /// store's erasure config asks for it an ErasureTier is hosted so
  /// origin-bound searches can resolve as degraded reads after a confirmed
  /// peer death.  Must run before traffic starts.
  void enable_store(const store::StoreContext& ctx);

  store::ErasureTier* erasure_tier() const noexcept override { return erasure_.get(); }

  /// Cached objects are the selective-caching table's entries, or every
  /// admission in the ABL-SEL mode (whose contents are not listed).
  sim::ProxySnapshot snapshot(bool with_contents) const override;

 private:
  void receive_request(sim::Transport& net, const sim::Message& msg);
  void receive_reply(sim::Transport& net, const sim::Message& msg);
  void receive_opinion(sim::Transport& net, const sim::Message& msg);
  void handle_chunk_reply(sim::Transport& net, const sim::Message& msg);

  /// Paper Figure 6: table lookup, THIS -> origin, unknown -> random peer.
  NodeId forward_address(sim::Transport& net, const Located& mine);

  AdcConfig config_;
  MappingTables tables_;
  std::vector<NodeId> proxies_;
  NodeId origin_;

  /// Local logical clock: ticks once per received request (Figure 5).
  SimTime local_time_ = 0;

  /// Pending-backwarding records per request id.
  sim::PendingRecords pending_;

  /// Version of the locally cached copy (0 when absent or versioning off);
  /// `mine` is the object's table entry as located.
  std::uint64_t stored_version(ObjectId object, const Located& mine) const noexcept;

  /// ABL-SEL mode: admit-all LRU cache replacing the ordered caching table.
  std::unique_ptr<cache::CacheSet> lru_cache_;

  /// Payload store (null while disabled) and the erasure tier it powers.
  store::PayloadStorePtr store_;
  std::unique_ptr<store::ErasureTier> erasure_;

  std::uint64_t size_of(ObjectId object) const {
    return store_ == nullptr ? 0 : store_->size_of(object);
  }

  AdcProxyStats stats_;
};

}  // namespace adc::core
