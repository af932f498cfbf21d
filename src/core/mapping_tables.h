// The three-table mapping structure at the heart of ADC (paper Section
// III.3) and the Update_Entry procedure that moves entries between tables
// (paper Figure 8).
//
// Table roles:
//  * single-table  — LRU log of the recent request flow; entries wait here
//    for a second hit so an average inter-request time can be estimated.
//  * multiple-table — objects requested more than once, ordered by aged
//    average; the proxy's "directory" of remote locations.
//  * caching table — the subset the proxy actually stores, also ordered by
//    aged average (selective caching, Section III.4).
//
// This class is pure data logic: no messaging, no clock.  The proxy feeds
// it the local time, which makes every transition unit-testable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "cache/ordered_table.h"
#include "cache/single_table.h"
#include "cache/table_entry.h"
#include "core/adc_config.h"
#include "util/types.h"

namespace adc::core {

/// Which table an entry landed in after an update (for stats and tests).
enum class TablePlacement {
  kCaching,
  kMultiple,
  kSingle,
};

struct UpdateResult {
  TablePlacement placement = TablePlacement::kSingle;
  bool created = false;            // part 4 ran (object previously unknown)
  bool promoted_to_cache = false;  // object newly entered the caching table
  bool demoted_from_cache = false; // some other object left the caching table
  bool rejected_stale = false;     // claim older than the stored one; no change
};

class MappingTables {
 public:
  explicit MappingTables(const AdcConfig& config);

  /// The paper's Update_Entry(Object, Location) at local time `now`.
  /// `data_version` — when the update accompanies actual object data (a
  /// backwarding reply) — records the version of that data in the entry;
  /// nullopt (pure bookkeeping touch) keeps the stored version.
  /// `claim` is the resolver-claim version the location was learned at: a
  /// strictly older claim than the stored entry's is rejected outright
  /// (`rejected_stale`, no state change) — the partition-tolerance rule
  /// that stops a healed proxy from overwriting fresher opinions with
  /// pre-partition state.  Claims only ratchet up; 0 never rejects an
  /// unversioned entry.
  UpdateResult update_entry(ObjectId object, NodeId location, SimTime now,
                            std::optional<std::uint64_t> data_version = std::nullopt,
                            std::uint64_t claim = 0);

  /// True when the object sits in the caching table — i.e. the proxy holds
  /// the object's data (the paper's "locally cached" test).
  bool is_cached(ObjectId object) const noexcept;

  /// Forwarding lookup (paper Figure 6): searches caching, multiple then
  /// single table and returns the stored location; nullopt when unknown.
  std::optional<NodeId> forward_location(ObjectId object) const noexcept;

  /// The entry for `object` wherever it lives (caching, multiple, single
  /// order — the forward_location search order); nullptr when unknown.
  const cache::TableEntry* find(ObjectId object) const noexcept;

  /// Resolver-claim version stored for `object`; 0 when unknown or
  /// unversioned.  Forwarded requests accumulate their claim floor from
  /// this.
  std::uint64_t claim_of(ObjectId object) const noexcept;

  /// Anti-entropy repair: overwrites the stored location and claim of an
  /// *existing* single- or multiple-table entry in place — no aging, no
  /// recency touch, so repair traffic cannot perturb table order.  Caching
  /// entries are left alone (this proxy holds the data; its own claim
  /// stands).  Returns false when the object is unknown or cached.
  bool repair_location(ObjectId object, NodeId location, std::uint64_t claim);

  /// Raises the stored claim of an existing entry to at least `claim`
  /// (in place, no aging).  Used when a proxy re-claims resolver status
  /// for an object it just admitted to its cache.
  void stamp_claim(ObjectId object, std::uint64_t claim);

  /// Drops every single- and multiple-table entry whose believed location
  /// is `location` — used when a peer is detected dead, so requests stop
  /// forwarding into a black hole.  Caching-table entries survive: the
  /// data is held locally regardless of where it once came from.  Returns
  /// the number of entries removed.
  std::size_t invalidate_location(NodeId location);

  /// Cache warming: places the object directly into the caching table as a
  /// maximally hot entry (operators prefill caches; the walk-model tests
  /// construct exact replica counts with it).  Evicts the current worst
  /// when full.  No-op without a caching table or if already cached.
  void warm_cache(ObjectId object, NodeId location, SimTime now,
                  std::uint64_t version = 0);

  /// Read-only access for tests, stats and diagnostics.
  const cache::SingleTable& single() const noexcept { return *single_; }
  const cache::OrderedTable& multiple() const noexcept { return *multiple_; }
  const cache::OrderedTable& caching() const noexcept { return *caching_; }
  bool has_caching_table() const noexcept { return caching_ != nullptr; }

  std::size_t total_entries() const noexcept;

  void clear();

 private:
  UpdateResult update_in_caching(cache::TableEntry entry, NodeId location, SimTime now,
                                 std::optional<std::uint64_t> data_version, std::uint64_t claim);
  UpdateResult update_in_multiple(cache::TableEntry entry, NodeId location, SimTime now,
                                  std::optional<std::uint64_t> data_version, std::uint64_t claim);
  UpdateResult update_in_single(cache::TableEntry entry, NodeId location, SimTime now,
                                std::optional<std::uint64_t> data_version, std::uint64_t claim);
  UpdateResult create_entry(ObjectId object, NodeId location, SimTime now,
                            std::optional<std::uint64_t> data_version, std::uint64_t claim);

  std::unique_ptr<cache::SingleTable> single_;
  std::unique_ptr<cache::OrderedTable> multiple_;
  std::unique_ptr<cache::OrderedTable> caching_;  // null in ABL-SEL mode
};

}  // namespace adc::core
