#include "core/mapping_tables.h"

#include <algorithm>

namespace adc::core {

using cache::TableEntry;

namespace {

cache::TableCapacities capacities_of(const AdcConfig& config) {
  cache::TableCapacities capacities;
  // A single-table of capacity 0 would still hold the entry just created,
  // exactly like capacity 1.
  capacities.single = std::max<std::size_t>(1, config.single_table_size);
  capacities.multiple = config.multiple_table_size;
  capacities.caching = config.selective_caching ? config.caching_table_size : 0;
  return capacities;
}

/// Refreshes a hit entry (Calc_Average) and records what the update
/// carries: the location, the data version when data passed, and the claim
/// (claims only ratchet up).
void touch(TableEntry& e, NodeId location, SimTime now, std::optional<std::uint64_t> data_version,
           std::uint64_t claim) {
  e.calc_average(now);
  e.location = location;
  if (data_version.has_value()) e.version = *data_version;
  e.raise_claim(claim);
}

/// Paper Figure 8 against either row store.
template <typename Rows>
UpdateResult update_entry_in(Rows& rows, ObjectId object, NodeId location, SimTime now,
                             std::optional<std::uint64_t> data_version, std::uint64_t claim) {
  using cache::TableId;
  UpdateResult result;
  auto h = rows.locate(object);

  if (!h.found()) {
    // PART 4 — unknown object: fresh entry on top of the single-table; the
    // bottom entry drops out of the system when the table is full.
    TableEntry fresh = cache::make_entry(object, location, now);
    fresh.version = data_version.value_or(0);
    fresh.claim = claim;
    if (rows.size(TableId::kSingle) >= rows.capacity(TableId::kSingle)) rows.erase(rows.tail());
    result.entry = &rows.entry(rows.insert(TableId::kSingle, fresh));
    result.placement = TableId::kSingle;
    result.created = true;
    return result;
  }

  // Stale-claim rejection: an update carrying a strictly older claim than
  // the stored entry's is pre-partition news — learning from it would
  // overwrite a fresher resolver opinion, so it is dropped before any
  // table state changes (no aging, no reordering).
  if (rows.entry(h).claim > claim) {
    result.entry = &rows.entry(h);
    result.placement = h.table;
    result.rejected_stale = true;
    return result;
  }

  // Parts 1-3 refresh the entry where it stands, then place it: a move
  // when it outperforms the next table's worst, a refresh otherwise.
  touch(rows.entry(h), location, now, data_version, claim);
  const double aged = rows.entry(h).aged(now);
  if (h.table == TableId::kCaching) {
    // PART 1 — the entry is cached: it takes its new order position.  A
    // cached entry is never demoted here; demotion only happens when a
    // multiple-table entry outperforms it (part 2).
    h = rows.refresh(h);
  } else if (h.table == TableId::kMultiple &&
             aged < cache::worst_aged(rows, TableId::kCaching, now)) {
    // PART 2 — a multiple-table entry that beats the cache's current worst
    // moves into the caching table; the displaced cache entry falls back
    // into the slot this entry frees.
    const auto d = rows.detach(h);
    if (rows.size(TableId::kCaching) >= rows.capacity(TableId::kCaching)) {
      rows.move(rows.worst(TableId::kCaching), TableId::kMultiple);
      result.demoted_from_cache = true;
    }
    h = rows.attach(d, TableId::kCaching);
    result.promoted_to_cache = true;
  } else if (h.table == TableId::kSingle &&
             aged < cache::worst_aged(rows, TableId::kMultiple, now)) {
    // PART 3 — a single-table entry's second (or later) hit makes its
    // average meaningful; it moves into the multiple-table iff it beats
    // that table's worst, whose victim returns to the top of the
    // single-table.
    const auto d = rows.detach(h);
    if (rows.size(TableId::kMultiple) >= rows.capacity(TableId::kMultiple)) {
      rows.move(rows.worst(TableId::kMultiple), TableId::kSingle);
    }
    h = rows.attach(d, TableId::kMultiple);
  } else {
    // Parts 2 and 3 without a move: a new order position in the same
    // table (the single-table's top).
    h = rows.refresh(h);
  }
  result.placement = h.table;
  result.entry = &rows.entry(h);
  return result;
}

}  // namespace

// --- TableView -------------------------------------------------------------

std::size_t TableView::size() const noexcept {
  return tables_.store_.visit([this](const auto& rows) { return rows.size(table_); });
}

std::size_t TableView::capacity() const noexcept {
  return tables_.store_.visit([this](const auto& rows) { return rows.capacity(table_); });
}

const TableEntry* TableView::find(ObjectId object) const noexcept {
  return tables_.store_.visit([this, object](const auto& rows) -> const TableEntry* {
    const auto h = rows.locate(object);
    return h.found() && h.table == table_ ? &rows.entry(h) : nullptr;
  });
}

const TableEntry* TableView::best() const {
  const TableEntry* out = nullptr;
  tables_.store_.visit([this, &out](const auto& rows) {
    rows.for_each(table_, [&out](const TableEntry& e) {
      if (out == nullptr) out = &e;
    });
  });
  return out;
}

const TableEntry* TableView::worst() const {
  return tables_.store_.visit([this](const auto& rows) -> const TableEntry* {
    if (rows.size(table_) == 0) return nullptr;
    return &rows.entry(table_ == TablePlacement::kSingle ? rows.tail() : rows.worst(table_));
  });
}

void TableView::for_each(const std::function<void(const TableEntry&)>& fn) const {
  tables_.store_.visit([this, &fn](const auto& rows) { rows.for_each(table_, fn); });
}

std::vector<TableEntry> TableView::snapshot() const {
  std::vector<TableEntry> out;
  out.reserve(size());
  for_each([&out](const TableEntry& e) { out.push_back(e); });
  return out;
}

// --- MappingTables ---------------------------------------------------------

MappingTables::MappingTables(const AdcConfig& config)
    : store_(config.table_impl, capacities_of(config)) {}

UpdateResult MappingTables::update_entry(ObjectId object, NodeId location, SimTime now,
                                         std::optional<std::uint64_t> data_version,
                                         std::uint64_t claim) {
  return store_.visit([&](auto& rows) {
    return update_entry_in(rows, object, location, now, data_version, claim);
  });
}

Located MappingTables::locate(ObjectId object) noexcept {
  return store_.visit([object](auto& rows) -> Located {
    const auto h = rows.locate(object);
    if (!h.found()) return {};
    return {&rows.entry(h), h.table};
  });
}

const TableEntry* MappingTables::find(ObjectId object) const noexcept {
  return store_.visit([object](const auto& rows) -> const TableEntry* {
    const auto h = rows.locate(object);
    return h.found() ? &rows.entry(h) : nullptr;
  });
}

bool MappingTables::is_cached(ObjectId object) const noexcept {
  return store_.visit([object](const auto& rows) {
    const auto h = rows.locate(object);
    return h.found() && h.table == TablePlacement::kCaching;
  });
}

std::optional<NodeId> MappingTables::forward_location(ObjectId object) const noexcept {
  if (const TableEntry* e = find(object)) return e->location;
  return std::nullopt;
}

std::uint64_t MappingTables::claim_of(ObjectId object) const noexcept {
  const TableEntry* e = find(object);
  return e != nullptr ? e->claim : 0;
}

bool MappingTables::repair_location(ObjectId object, NodeId location, std::uint64_t claim) {
  const Located mine = locate(object);
  if (mine.entry == nullptr || mine.cached()) return false;
  mine.entry->location = location;
  mine.entry->claim = claim;
  return true;
}

void MappingTables::stamp_claim(ObjectId object, std::uint64_t claim) {
  if (TableEntry* e = locate(object).entry) e->raise_claim(claim);
}

std::size_t MappingTables::total_entries() const noexcept {
  return single().size() + multiple().size() + caching().size();
}

void MappingTables::clear() {
  store_.visit([](auto& rows) { rows.clear(); });
}

std::size_t MappingTables::invalidate_location(NodeId location) {
  return store_.visit([location](auto& rows) {
    const auto points_there = [location](const TableEntry& e) { return e.location == location; };
    return rows.erase_if(TablePlacement::kSingle, points_there) +
           rows.erase_if(TablePlacement::kMultiple, points_there);
  });
}

void MappingTables::warm_cache(ObjectId object, NodeId location, SimTime now,
                               std::uint64_t version) {
  store_.visit([&](auto& rows) {
    using cache::TableId;
    if (rows.capacity(TableId::kCaching) == 0) return;
    const auto h = rows.locate(object);
    if (h.found()) {
      if (h.table == TableId::kCaching) return;
      // Drop the colder bookkeeping entry so the object lives in exactly
      // one table.
      rows.erase(h);
    }
    if (rows.size(TableId::kCaching) >= rows.capacity(TableId::kCaching)) {
      const auto demoted = rows.worst(TableId::kCaching);
      if (rows.size(TableId::kMultiple) < rows.capacity(TableId::kMultiple)) {
        rows.move(demoted, TableId::kMultiple);
      } else {
        rows.erase(demoted);
      }
    }
    TableEntry entry = cache::make_entry(object, location, now);
    entry.hits = 2;  // behave like an established entry, not a part-4 fresh one
    entry.version = version;
    rows.insert(TableId::kCaching, entry);
  });
}

}  // namespace adc::core
