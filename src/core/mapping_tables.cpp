#include "core/mapping_tables.h"

#include <cassert>

namespace adc::core {

using cache::TableEntry;

MappingTables::MappingTables(const AdcConfig& config)
    : single_(cache::make_single_table(config.single_table_size, config.table_impl)),
      multiple_(cache::make_ordered_table(config.multiple_table_size, config.table_impl)),
      caching_(config.selective_caching
                   ? cache::make_ordered_table(config.caching_table_size, config.table_impl)
                   : nullptr) {}

bool MappingTables::is_cached(ObjectId object) const noexcept {
  return caching_ != nullptr && caching_->contains(object);
}

std::optional<NodeId> MappingTables::forward_location(ObjectId object) const noexcept {
  if (const TableEntry* e = find(object)) return e->location;
  return std::nullopt;
}

const TableEntry* MappingTables::find(ObjectId object) const noexcept {
  if (caching_ != nullptr) {
    if (const TableEntry* e = caching_->find(object)) return e;
  }
  if (const TableEntry* e = multiple_->find(object)) return e;
  return single_->find(object);
}

std::uint64_t MappingTables::claim_of(ObjectId object) const noexcept {
  const TableEntry* e = find(object);
  return e != nullptr ? e->claim : 0;
}

bool MappingTables::repair_location(ObjectId object, NodeId location, std::uint64_t claim) {
  if (caching_ != nullptr && caching_->contains(object)) return false;
  TableEntry* e = multiple_->find_mutable(object);
  if (e == nullptr) e = single_->find_mutable(object);
  if (e == nullptr) return false;
  e->location = location;
  e->claim = claim;
  return true;
}

void MappingTables::stamp_claim(ObjectId object, std::uint64_t claim) {
  TableEntry* e = caching_ != nullptr ? caching_->find_mutable(object) : nullptr;
  if (e == nullptr) e = multiple_->find_mutable(object);
  if (e == nullptr) e = single_->find_mutable(object);
  if (e != nullptr && e->claim < claim) e->claim = claim;
}

std::size_t MappingTables::total_entries() const noexcept {
  return single_->size() + multiple_->size() + (caching_ != nullptr ? caching_->size() : 0);
}

void MappingTables::clear() {
  single_->clear();
  multiple_->clear();
  if (caching_ != nullptr) caching_->clear();
}

std::size_t MappingTables::invalidate_location(NodeId location) {
  std::vector<ObjectId> victims;
  for (const TableEntry& e : single_->snapshot()) {
    if (e.location == location) victims.push_back(e.object);
  }
  for (ObjectId object : victims) single_->remove(object);
  std::size_t removed = victims.size();

  victims.clear();
  multiple_->for_each([&victims, location](const TableEntry& e) {
    if (e.location == location) victims.push_back(e.object);
  });
  for (ObjectId object : victims) multiple_->remove(object);
  removed += victims.size();
  return removed;
}

void MappingTables::warm_cache(ObjectId object, NodeId location, SimTime now,
                               std::uint64_t version) {
  if (caching_ == nullptr || caching_->contains(object)) return;
  // Drop any colder bookkeeping entry so the object lives in exactly one
  // table.
  multiple_->remove(object);
  single_->remove(object);
  if (caching_->full()) {
    auto demoted = caching_->remove_worst();
    assert(demoted.has_value());
    if (!multiple_->full()) multiple_->insert(*demoted);
  }
  cache::TableEntry entry = cache::make_entry(object, location, now);
  entry.hits = 2;  // behave like an established entry, not a part-4 fresh one
  entry.version = version;
  caching_->insert(entry);
}

UpdateResult MappingTables::update_entry(ObjectId object, NodeId location, SimTime now,
                                         std::optional<std::uint64_t> data_version,
                                         std::uint64_t claim) {
  // Stale-claim rejection: an update carrying a strictly older claim than
  // the stored entry's is pre-partition news — learning from it would
  // overwrite a fresher resolver opinion, so it is dropped before any
  // table state changes (no aging, no reordering).
  const auto stale = [claim](const TableEntry& existing) { return existing.claim > claim; };
  UpdateResult rejected;
  rejected.rejected_stale = true;

  // Figure 8, parts 1-4, searched in the order caching, multiple, single.
  if (caching_ != nullptr) {
    if (const TableEntry* e = caching_->find(object)) {
      if (stale(*e)) return rejected;
      return update_in_caching(*caching_->remove(object), location, now, data_version, claim);
    }
  }
  if (const TableEntry* e = multiple_->find(object)) {
    if (stale(*e)) return rejected;
    return update_in_multiple(*multiple_->remove(object), location, now, data_version, claim);
  }
  if (const TableEntry* e = single_->find(object)) {
    if (stale(*e)) return rejected;
    return update_in_single(*single_->remove(object), location, now, data_version, claim);
  }
  return create_entry(object, location, now, data_version, claim);
}

// PART 1 — the entry is cached: refresh and reinsert at its new order
// position.  A cached entry is never demoted here; demotion only happens
// when a multiple-table entry outperforms it (part 2).
UpdateResult MappingTables::update_in_caching(TableEntry entry, NodeId location, SimTime now,
                                              std::optional<std::uint64_t> data_version,
                                              std::uint64_t claim) {
  entry.calc_average(now);
  entry.location = location;
  if (data_version.has_value()) entry.version = *data_version;
  if (entry.claim < claim) entry.claim = claim;
  caching_->insert(entry);  // one slot is free: we just removed the entry
  UpdateResult result;
  result.placement = TablePlacement::kCaching;
  return result;
}

// PART 2 — the entry is in the multiple-table: it moves into the caching
// table iff its aged average beats the cache's current worst; the displaced
// cache entry falls back into the multiple-table.
UpdateResult MappingTables::update_in_multiple(TableEntry entry, NodeId location, SimTime now,
                                               std::optional<std::uint64_t> data_version,
                                               std::uint64_t claim) {
  entry.calc_average(now);
  entry.location = location;
  if (data_version.has_value()) entry.version = *data_version;
  if (entry.claim < claim) entry.claim = claim;

  UpdateResult result;
  if (caching_ != nullptr && entry.aged(now) < caching_->worst_aged(now)) {
    if (caching_->full()) {
      auto demoted = caching_->remove_worst();
      assert(demoted.has_value());
      // The multiple-table has a free slot (the entry was removed above),
      // so this insert cannot overflow.
      multiple_->insert(*demoted);
      result.demoted_from_cache = true;
    }
    caching_->insert(entry);
    result.placement = TablePlacement::kCaching;
    result.promoted_to_cache = true;
  } else {
    multiple_->insert(entry);
    result.placement = TablePlacement::kMultiple;
  }
  return result;
}

// PART 3 — the entry is in the single-table: a second (or later) hit has
// occurred, so the average is now meaningful; it moves into the
// multiple-table iff it beats that table's worst, whose victim returns to
// the top of the single-table.
UpdateResult MappingTables::update_in_single(TableEntry entry, NodeId location, SimTime now,
                                             std::optional<std::uint64_t> data_version,
                                             std::uint64_t claim) {
  entry.calc_average(now);
  entry.location = location;
  if (data_version.has_value()) entry.version = *data_version;
  if (entry.claim < claim) entry.claim = claim;

  UpdateResult result;
  if (entry.aged(now) < multiple_->worst_aged(now)) {
    if (multiple_->full()) {
      auto demoted = multiple_->remove_worst();
      assert(demoted.has_value());
      // The single-table has a free slot (the entry was removed above).
      single_->insert_on_top(*demoted);
    }
    multiple_->insert(entry);
    result.placement = TablePlacement::kMultiple;
  } else {
    single_->insert_on_top(entry);
    result.placement = TablePlacement::kSingle;
  }
  return result;
}

// PART 4 — unknown object: fresh entry on top of the single-table; the
// bottom entry drops out of the system when the table is full.
UpdateResult MappingTables::create_entry(ObjectId object, NodeId location, SimTime now,
                                         std::optional<std::uint64_t> data_version,
                                         std::uint64_t claim) {
  cache::TableEntry entry = cache::make_entry(object, location, now);
  entry.version = data_version.value_or(0);
  entry.claim = claim;
  single_->insert_on_top(entry);
  UpdateResult result;
  result.placement = TablePlacement::kSingle;
  result.created = true;
  return result;
}

}  // namespace adc::core
