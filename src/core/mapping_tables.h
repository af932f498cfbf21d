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
// The tables own their rows through one cache::TableStore (see
// cache/table_store.h).  Every public call dispatches once to the
// configured store; Update_Entry is written once against the stores'
// shared handle API.  This class is pure data logic: no messaging, no
// clock.  The proxy feeds it the local time, which makes every transition
// unit-testable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/table_entry.h"
#include "cache/table_store.h"
#include "core/adc_config.h"
#include "util/types.h"

namespace adc::core {

/// Which table an entry lives in (for stats and tests).
using TablePlacement = cache::TableId;

struct UpdateResult {
  /// The table holding the object after the call (also when rejected).
  TablePlacement placement = TablePlacement::kSingle;
  bool created = false;            // part 4 ran (object previously unknown)
  bool promoted_to_cache = false;  // object newly entered the caching table
  bool demoted_from_cache = false; // some other object left the caching table
  bool rejected_stale = false;     // claim older than the stored one; no change
  /// The object's entry after the call; valid until the tables next change.
  cache::TableEntry* entry = nullptr;
};

/// An object's entry and the table holding it, found by one lookup.
/// `entry` is null when the object is unknown.  It stays valid until the
/// tables next change; only fields that are not ordering keys (location,
/// claim, version) may be edited through it.
struct Located {
  cache::TableEntry* entry = nullptr;
  TablePlacement table = TablePlacement::kSingle;

  bool cached() const noexcept { return entry != nullptr && table == TablePlacement::kCaching; }
  std::uint64_t claim() const noexcept { return entry != nullptr ? entry->claim : 0; }
};

class MappingTables;

/// Read-only view of one table, for tests, stats and diagnostics.  Each
/// call dispatches to the store.
class TableView {
 public:
  TableView(const MappingTables& tables, TablePlacement table) : tables_(tables), table_(table) {}

  std::size_t size() const noexcept;
  std::size_t capacity() const noexcept;
  bool empty() const noexcept { return size() == 0; }
  bool full() const noexcept { return size() >= capacity(); }

  /// The object's entry when it lives in this table; nullptr otherwise.
  const cache::TableEntry* find(ObjectId object) const noexcept;
  bool contains(ObjectId object) const noexcept { return find(object) != nullptr; }

  /// First and last entry in table order (single-table: top and bottom;
  /// ordered tables: hottest and worst); nullptr when empty.
  const cache::TableEntry* best() const;
  const cache::TableEntry* worst() const;

  /// Visits entries in table order.  Ordered tables sort a copy of their
  /// heap in indexed mode, so the per-request path never iterates.
  void for_each(const std::function<void(const cache::TableEntry&)>& fn) const;
  std::vector<cache::TableEntry> snapshot() const;

 private:
  const MappingTables& tables_;
  TablePlacement table_;
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

  /// One lookup answering where the object lives and what it stores.
  Located locate(ObjectId object) noexcept;

  /// True when the object sits in the caching table — i.e. the proxy holds
  /// the object's data (the paper's "locally cached" test).
  bool is_cached(ObjectId object) const noexcept;

  /// Forwarding lookup (paper Figure 6): searches caching, multiple then
  /// single table and returns the stored location; nullopt when unknown.
  std::optional<NodeId> forward_location(ObjectId object) const noexcept;

  /// The entry for `object` wherever it lives; nullptr when unknown.
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
  TableView single() const noexcept { return {*this, TablePlacement::kSingle}; }
  TableView multiple() const noexcept { return {*this, TablePlacement::kMultiple}; }
  TableView caching() const noexcept { return {*this, TablePlacement::kCaching}; }
  bool has_caching_table() const noexcept { return caching().capacity() != 0; }

  std::size_t total_entries() const noexcept;

  void clear();

 private:
  friend class TableView;

  cache::TableStore store_;
};

}  // namespace adc::core
