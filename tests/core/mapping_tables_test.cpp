#include "core/mapping_tables.h"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>

#include "util/rng.h"

namespace adc::cache {

void PrintTo(const TableEntry& e, std::ostream* os) {
  *os << "{object " << e.object << " loc " << e.location << " last " << e.last << " avg "
      << e.average << " hits " << e.hits << " v" << e.version << " claim " << e.claim << "}";
}

}  // namespace adc::cache

namespace adc::core {
namespace {

constexpr NodeId kSelf = 0;
constexpr NodeId kPeer = 3;

AdcConfig small_config(std::size_t single = 4, std::size_t multiple = 4,
                       std::size_t caching = 2) {
  AdcConfig config;
  config.single_table_size = single;
  config.multiple_table_size = multiple;
  config.caching_table_size = caching;
  return config;
}

// --- Part 4: unknown objects -------------------------------------------

TEST(UpdateEntry, UnknownObjectEntersSingleTableTop) {
  MappingTables tables(small_config());
  const UpdateResult result = tables.update_entry(1, kPeer, 10);
  EXPECT_TRUE(result.created);
  EXPECT_EQ(result.placement, TablePlacement::kSingle);
  ASSERT_NE(tables.single().best(), nullptr);
  EXPECT_EQ(tables.single().best()->object, 1u);
  EXPECT_EQ(tables.single().best()->location, kPeer);
  EXPECT_EQ(tables.single().best()->average, 0);
  EXPECT_EQ(tables.single().best()->hits, 1u);
}

TEST(UpdateEntry, SingleTableOverflowDropsOldest) {
  MappingTables tables(small_config(/*single=*/3));
  for (ObjectId id = 1; id <= 4; ++id) tables.update_entry(id, kPeer, static_cast<SimTime>(id));
  EXPECT_EQ(tables.single().size(), 3u);
  EXPECT_FALSE(tables.single().contains(1));
  EXPECT_TRUE(tables.single().contains(4));
}

// --- Part 3: single-table hits ------------------------------------------

TEST(UpdateEntry, SecondHitPromotesToMultiple) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10);
  const UpdateResult result = tables.update_entry(1, kPeer, 25);
  EXPECT_FALSE(result.created);
  EXPECT_EQ(result.placement, TablePlacement::kMultiple);
  EXPECT_FALSE(tables.single().contains(1));
  ASSERT_TRUE(tables.multiple().contains(1));
  EXPECT_EQ(tables.multiple().find(1)->average, 15);
  EXPECT_EQ(tables.multiple().find(1)->hits, 2u);
}

TEST(UpdateEntry, SecondHitStaysInSingleWhenMultipleIsBetterEverywhere) {
  // Fill the multiple-table with hot entries (tiny averages, recent), then
  // re-hit a single-table entry whose aged value is worse than the
  // multiple-table's worst.
  MappingTables tables(small_config(/*single=*/8, /*multiple=*/2, /*caching=*/2));
  // Hot pair promoted into multiple with gap 1 at times ~100.
  tables.update_entry(10, kPeer, 99);
  tables.update_entry(10, kPeer, 100);
  tables.update_entry(11, kPeer, 100);
  tables.update_entry(11, kPeer, 101);
  ASSERT_TRUE(tables.multiple().full());
  // Cold object: first seen at 1, re-hit at 101 -> avg 100, aged 50 at 101.
  tables.update_entry(20, kPeer, 1);
  const UpdateResult result = tables.update_entry(20, kPeer, 101);
  EXPECT_EQ(result.placement, TablePlacement::kSingle);
  EXPECT_TRUE(tables.single().contains(20));
  // And it went back on top (LRU bump).
  EXPECT_EQ(tables.single().best()->object, 20u);
}

TEST(UpdateEntry, PromotionIntoFullMultipleDemotesWorstToSingleTop) {
  MappingTables tables(small_config(/*single=*/8, /*multiple=*/2, /*caching=*/2));
  // Two lukewarm entries fill the multiple-table (gap 50).
  tables.update_entry(10, kPeer, 0);
  tables.update_entry(10, kPeer, 50);
  tables.update_entry(11, kPeer, 10);
  tables.update_entry(11, kPeer, 60);
  ASSERT_TRUE(tables.multiple().full());
  const ObjectId worst_before = tables.multiple().worst()->object;
  // A hot newcomer (gap 2, fresh) must displace the worst.
  tables.update_entry(30, kPeer, 98);
  const UpdateResult result = tables.update_entry(30, kPeer, 100);
  EXPECT_EQ(result.placement, TablePlacement::kMultiple);
  EXPECT_TRUE(tables.multiple().contains(30));
  EXPECT_FALSE(tables.multiple().contains(worst_before));
  EXPECT_TRUE(tables.single().contains(worst_before));
  EXPECT_EQ(tables.single().best()->object, worst_before);
}

// --- Part 2: multiple-table hits ----------------------------------------

TEST(UpdateEntry, ThirdHitPromotesToCachingWhileCacheHasRoom) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10);
  tables.update_entry(1, kPeer, 20);  // -> multiple
  const UpdateResult result = tables.update_entry(1, kPeer, 30);
  EXPECT_EQ(result.placement, TablePlacement::kCaching);
  EXPECT_TRUE(result.promoted_to_cache);
  EXPECT_FALSE(result.demoted_from_cache);
  EXPECT_TRUE(tables.is_cached(1));
  EXPECT_FALSE(tables.multiple().contains(1));
}

TEST(UpdateEntry, MultipleEntryStaysWhenCacheIsBetter) {
  MappingTables tables(small_config(/*single=*/8, /*multiple=*/4, /*caching=*/1));
  // Hot object fills the 1-slot cache (gap 1).
  tables.update_entry(1, kPeer, 100);
  tables.update_entry(1, kPeer, 101);
  tables.update_entry(1, kPeer, 102);  // cached
  ASSERT_TRUE(tables.is_cached(1));
  // Lukewarm object reaches multiple and gets re-hit, but its aged value
  // (gap ~50) cannot beat the cache's worst (gap ~1, fresh).
  tables.update_entry(2, kPeer, 4);
  tables.update_entry(2, kPeer, 54);   // -> multiple
  const UpdateResult result = tables.update_entry(2, kPeer, 104);
  EXPECT_EQ(result.placement, TablePlacement::kMultiple);
  EXPECT_FALSE(result.promoted_to_cache);
  EXPECT_TRUE(tables.multiple().contains(2));
  EXPECT_TRUE(tables.is_cached(1));
}

TEST(UpdateEntry, CachePromotionDemotesWorstCacheEntryToMultiple) {
  MappingTables tables(small_config(/*single=*/8, /*multiple=*/4, /*caching=*/1));
  // Lukewarm object occupies the cache (gap 40).
  tables.update_entry(1, kPeer, 0);
  tables.update_entry(1, kPeer, 40);
  tables.update_entry(1, kPeer, 80);  // cached, avg 40
  ASSERT_TRUE(tables.is_cached(1));
  // Hot object (gap 1) storms through: single -> multiple -> cache.
  tables.update_entry(2, kPeer, 98);
  tables.update_entry(2, kPeer, 99);
  const UpdateResult result = tables.update_entry(2, kPeer, 100);
  EXPECT_EQ(result.placement, TablePlacement::kCaching);
  EXPECT_TRUE(result.promoted_to_cache);
  EXPECT_TRUE(result.demoted_from_cache);
  EXPECT_TRUE(tables.is_cached(2));
  EXPECT_FALSE(tables.is_cached(1));
  EXPECT_TRUE(tables.multiple().contains(1));  // demoted, not dropped
}

// --- Part 1: caching-table hits -----------------------------------------

TEST(UpdateEntry, CachedEntryIsRefreshedInPlace) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10);
  tables.update_entry(1, kPeer, 20);
  tables.update_entry(1, kPeer, 30);  // cached, avg 10
  ASSERT_TRUE(tables.is_cached(1));
  const UpdateResult result = tables.update_entry(1, kSelf, 40);
  EXPECT_EQ(result.placement, TablePlacement::kCaching);
  EXPECT_FALSE(result.promoted_to_cache);  // it was already cached
  ASSERT_TRUE(tables.is_cached(1));
  EXPECT_EQ(tables.caching().find(1)->location, kSelf);
  EXPECT_EQ(tables.caching().find(1)->average, 10);  // (10 + 10) / 2
  EXPECT_EQ(tables.caching().find(1)->hits, 4u);
}

// --- Lookup behaviour ----------------------------------------------------

TEST(MappingTables, ForwardLocationSearchesCachingFirst) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10);
  EXPECT_EQ(tables.forward_location(1), kPeer);
  tables.update_entry(1, 4, 20);  // now in multiple with location 4
  EXPECT_EQ(tables.forward_location(1), 4);
  tables.update_entry(1, 5, 30);  // now cached with location 5
  EXPECT_EQ(tables.forward_location(1), 5);
}

TEST(MappingTables, ForwardLocationUnknownIsNullopt) {
  MappingTables tables(small_config());
  EXPECT_FALSE(tables.forward_location(99).has_value());
}

TEST(MappingTables, TotalEntriesSumsAllTables) {
  MappingTables tables(small_config(8, 8, 4));
  tables.update_entry(1, kPeer, 1);   // single
  tables.update_entry(2, kPeer, 2);   // single
  tables.update_entry(2, kPeer, 3);   // multiple
  tables.update_entry(2, kPeer, 4);   // caching
  EXPECT_EQ(tables.single().size(), 1u);
  EXPECT_EQ(tables.multiple().size(), 0u);
  EXPECT_EQ(tables.caching().size(), 1u);
  EXPECT_EQ(tables.total_entries(), 2u);
}

TEST(MappingTables, ClearEmptiesAllTables) {
  MappingTables tables(small_config());
  for (ObjectId id = 1; id <= 3; ++id) {
    tables.update_entry(id, kPeer, static_cast<SimTime>(id));
    tables.update_entry(id, kPeer, static_cast<SimTime>(id + 10));
  }
  tables.clear();
  EXPECT_EQ(tables.total_entries(), 0u);
  EXPECT_FALSE(tables.forward_location(1).has_value());
}

// --- ABL-SEL mode (no caching table) -------------------------------------

TEST(MappingTables, NoCachingTableModeNeverCaches) {
  AdcConfig config = small_config();
  config.selective_caching = false;
  MappingTables tables(config);
  EXPECT_FALSE(tables.has_caching_table());
  for (int i = 0; i < 10; ++i) tables.update_entry(1, kPeer, i * 10);
  EXPECT_FALSE(tables.is_cached(1));
  EXPECT_TRUE(tables.multiple().contains(1));
}

TEST(MappingTables, NoCachingTableStillLearnsLocations) {
  AdcConfig config = small_config();
  config.selective_caching = false;
  MappingTables tables(config);
  tables.update_entry(1, kPeer, 10);
  tables.update_entry(1, 4, 20);
  EXPECT_EQ(tables.forward_location(1), 4);
}

// --- Data versions (staleness accounting) --------------------------------

TEST(UpdateEntry, DataVersionIsRecordedAndKept) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10, /*data_version=*/3);
  EXPECT_EQ(tables.single().find(1)->version, 3u);
  // A bookkeeping touch (no data in hand) keeps the stored version.
  tables.update_entry(1, kPeer, 20);
  EXPECT_EQ(tables.multiple().find(1)->version, 3u);
  // A new data pass refreshes it.
  tables.update_entry(1, kPeer, 30, /*data_version=*/7);
  ASSERT_TRUE(tables.is_cached(1));
  EXPECT_EQ(tables.caching().find(1)->version, 7u);
}

TEST(UpdateEntry, FreshEntryDefaultsToVersionZero) {
  MappingTables tables(small_config());
  tables.update_entry(9, kPeer, 5);
  EXPECT_EQ(tables.single().find(9)->version, 0u);
}

// --- Versioned resolver claims -------------------------------------------

TEST(UpdateEntry, StrictlyOlderClaimIsRejectedWithoutTouchingState) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10, std::nullopt, /*claim=*/5);
  const UpdateResult result = tables.update_entry(1, 4, 20, std::nullopt, /*claim=*/3);
  EXPECT_TRUE(result.rejected_stale);
  EXPECT_FALSE(result.created);
  // Nothing moved: no promotion to multiple, no location change, no aging.
  ASSERT_TRUE(tables.single().contains(1));
  EXPECT_EQ(tables.single().find(1)->location, kPeer);
  EXPECT_EQ(tables.single().find(1)->hits, 1u);
  EXPECT_EQ(tables.claim_of(1), 5u);
}

TEST(UpdateEntry, EqualClaimIsNotStale) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10, std::nullopt, /*claim=*/5);
  const UpdateResult result = tables.update_entry(1, 4, 20, std::nullopt, /*claim=*/5);
  EXPECT_FALSE(result.rejected_stale);
  EXPECT_EQ(result.placement, TablePlacement::kMultiple);
  EXPECT_EQ(tables.multiple().find(1)->location, 4);
}

TEST(UpdateEntry, FresherClaimRatchetsTheStoredClaimAcrossPromotions) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10, std::nullopt, /*claim=*/2);
  EXPECT_EQ(tables.claim_of(1), 2u);
  tables.update_entry(1, kPeer, 20, std::nullopt, /*claim=*/6);  // -> multiple
  EXPECT_EQ(tables.claim_of(1), 6u);
  tables.update_entry(1, kPeer, 30, std::nullopt, /*claim=*/9);  // -> caching
  ASSERT_TRUE(tables.is_cached(1));
  EXPECT_EQ(tables.claim_of(1), 9u);
}

TEST(UpdateEntry, UnversionedEntriesNeverReject) {
  // Entries that never saw a resolver claim (claim 0) accept any update —
  // the rejection rule only protects versioned opinions.
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10);
  const UpdateResult result = tables.update_entry(1, 4, 20);
  EXPECT_FALSE(result.rejected_stale);
  EXPECT_EQ(tables.claim_of(1), 0u);
  // First claim attaches cleanly.
  tables.update_entry(1, 4, 30, std::nullopt, /*claim=*/7);
  EXPECT_EQ(tables.claim_of(1), 7u);
}

TEST(MappingTables, ClaimOfUnknownObjectIsZero) {
  MappingTables tables(small_config());
  EXPECT_EQ(tables.claim_of(99), 0u);
}

TEST(MappingTables, RepairLocationOverwritesSingleAndMultipleEntriesInPlace) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10, std::nullopt, /*claim=*/9);  // single
  tables.update_entry(2, kPeer, 10, std::nullopt, /*claim=*/9);
  tables.update_entry(2, kPeer, 20, std::nullopt, /*claim=*/9);  // multiple
  EXPECT_TRUE(tables.repair_location(1, 4, /*claim=*/12));
  EXPECT_TRUE(tables.repair_location(2, 5, /*claim=*/13));
  // Repair is an overwrite, not a hit: entries stay in their tables with
  // the new location and claim, hit counts untouched.
  ASSERT_TRUE(tables.single().contains(1));
  EXPECT_EQ(tables.single().find(1)->location, 4);
  EXPECT_EQ(tables.single().find(1)->hits, 1u);
  EXPECT_EQ(tables.claim_of(1), 12u);
  ASSERT_TRUE(tables.multiple().contains(2));
  EXPECT_EQ(tables.multiple().find(2)->location, 5);
  EXPECT_EQ(tables.claim_of(2), 13u);
}

TEST(MappingTables, RepairLocationLeavesUnknownAndCachedObjectsAlone) {
  MappingTables tables(small_config());
  EXPECT_FALSE(tables.repair_location(99, 4, 12));
  // A cached entry means this proxy holds the bytes; a remote opinion must
  // not redirect it away from itself.
  tables.update_entry(1, kPeer, 10);
  tables.update_entry(1, kPeer, 20);
  tables.update_entry(1, kSelf, 30);  // cached
  ASSERT_TRUE(tables.is_cached(1));
  EXPECT_FALSE(tables.repair_location(1, 4, 12));
  EXPECT_EQ(tables.caching().find(1)->location, kSelf);
}

TEST(MappingTables, StampClaimRaisesInPlaceAndNeverLowers) {
  MappingTables tables(small_config());
  tables.update_entry(1, kPeer, 10, std::nullopt, /*claim=*/5);
  tables.stamp_claim(1, 8);
  EXPECT_EQ(tables.claim_of(1), 8u);
  tables.stamp_claim(1, 3);  // lower: ignored
  EXPECT_EQ(tables.claim_of(1), 8u);
  tables.stamp_claim(99, 8);  // unknown: no-op, no crash
  EXPECT_EQ(tables.claim_of(99), 0u);
  // No reordering happened: still a single-table entry with one hit.
  ASSERT_TRUE(tables.single().contains(1));
  EXPECT_EQ(tables.single().find(1)->hits, 1u);
}

// --- Invariants under churn ----------------------------------------------

TEST(MappingTablesProperty, CapacitiesNeverExceededAndNoDuplicates) {
  MappingTables tables(small_config(/*single=*/8, /*multiple=*/6, /*caching=*/4));
  util::Rng rng(99);
  SimTime now = 0;
  for (int step = 0; step < 30000; ++step) {
    const ObjectId object = 1 + rng.below(40);
    const auto location = static_cast<NodeId>(rng.below(5));
    tables.update_entry(object, location, ++now);

    ASSERT_LE(tables.single().size(), 8u);
    ASSERT_LE(tables.multiple().size(), 6u);
    ASSERT_LE(tables.caching().size(), 4u);

    // An object lives in at most one table.
    int homes = 0;
    if (tables.single().contains(object)) ++homes;
    if (tables.multiple().contains(object)) ++homes;
    if (tables.caching().contains(object)) ++homes;
    ASSERT_EQ(homes, 1) << "object " << object << " after step " << step;
  }
  // With 40 objects hammering 18 slots, the tables must be full.
  EXPECT_TRUE(tables.single().full());
  EXPECT_TRUE(tables.multiple().full());
  EXPECT_TRUE(tables.caching().full());
}

TEST(MappingTablesProperty, HotObjectsEndUpCached) {
  // Three objects requested every tick against a universe of noise must
  // occupy the cache: selective caching at work.
  MappingTables tables(small_config(/*single=*/16, /*multiple=*/8, /*caching=*/3));
  util::Rng rng(5);
  SimTime now = 0;
  for (int round = 0; round < 3000; ++round) {
    for (ObjectId hot = 1; hot <= 3; ++hot) tables.update_entry(hot, kPeer, ++now);
    tables.update_entry(1000 + rng.below(500), kPeer, ++now);  // noise
  }
  EXPECT_TRUE(tables.is_cached(1));
  EXPECT_TRUE(tables.is_cached(2));
  EXPECT_TRUE(tables.is_cached(3));
}

// --- Differential: indexed rows against the paper's structures ----------
//
// Both stores run the same Update_Entry, so every difference they can show
// comes from the row structures: heap order and tie-breaks, LRU links,
// relinking between tables, the index.  Small capacities make promotions,
// demotions and evictions happen every few steps.

struct TablePair {
  explicit TablePair(AdcConfig config) : faithful(with(config, cache::TableImpl::kFaithful)),
                                         indexed(with(config, cache::TableImpl::kIndexed)) {}

  static AdcConfig with(AdcConfig config, cache::TableImpl impl) {
    config.table_impl = impl;
    return config;
  }

  MappingTables faithful;
  MappingTables indexed;
};

void expect_same_tables(const TablePair& p, int step) {
  const auto same = [step](const TableView& a, const TableView& b, const char* name) {
    ASSERT_EQ(a.size(), b.size()) << name << " after step " << step;
    ASSERT_EQ(a.snapshot(), b.snapshot()) << name << " after step " << step;
  };
  same(p.faithful.single(), p.indexed.single(), "single");
  same(p.faithful.multiple(), p.indexed.multiple(), "multiple");
  same(p.faithful.caching(), p.indexed.caching(), "caching");
}

void expect_same_result(const UpdateResult& a, const UpdateResult& b, int step) {
  EXPECT_EQ(a.placement, b.placement) << "step " << step;
  EXPECT_EQ(a.created, b.created) << "step " << step;
  EXPECT_EQ(a.promoted_to_cache, b.promoted_to_cache) << "step " << step;
  EXPECT_EQ(a.demoted_from_cache, b.demoted_from_cache) << "step " << step;
  EXPECT_EQ(a.rejected_stale, b.rejected_stale) << "step " << step;
  ASSERT_NE(a.entry, nullptr);
  ASSERT_NE(b.entry, nullptr);
  EXPECT_EQ(*a.entry, *b.entry) << "step " << step;
}

/// One random operation on both tables, then the per-request lookups.
void random_step(TablePair& p, util::Rng& rng, SimTime& now, ObjectId universe, int step) {
  const ObjectId object = rng.below(universe);
  const auto location = static_cast<NodeId>(rng.below(5));
  const std::uint64_t claim = rng.below(4) == 0 ? 0 : rng.below(8);
  const std::uint64_t roll = rng.below(100);
  if (roll < 70) {
    // Time advances by 0-2 ticks, so equal skews (ties) are common.
    now += static_cast<SimTime>(rng.below(3));
    const std::optional<std::uint64_t> version =
        rng.below(2) == 0 ? std::nullopt : std::optional<std::uint64_t>(rng.below(4));
    const UpdateResult a = p.faithful.update_entry(object, location, now, version, claim);
    const UpdateResult b = p.indexed.update_entry(object, location, now, version, claim);
    expect_same_result(a, b, step);
  } else if (roll < 78) {
    const std::uint64_t version = rng.below(4);
    p.faithful.warm_cache(object, location, now, version);
    p.indexed.warm_cache(object, location, now, version);
  } else if (roll < 82) {
    EXPECT_EQ(p.faithful.invalidate_location(location), p.indexed.invalidate_location(location))
        << "step " << step;
  } else if (roll < 90) {
    EXPECT_EQ(p.faithful.repair_location(object, location, claim),
              p.indexed.repair_location(object, location, claim))
        << "step " << step;
  } else if (roll < 99) {
    p.faithful.stamp_claim(object, claim);
    p.indexed.stamp_claim(object, claim);
  } else if (rng.below(4) == 0) {
    p.faithful.clear();
    p.indexed.clear();
  }
  // The per-request lookups agree on a random object.
  const ObjectId probe = rng.below(universe);
  const Located a = p.faithful.locate(probe);
  const Located b = p.indexed.locate(probe);
  ASSERT_EQ(a.entry == nullptr, b.entry == nullptr) << "step " << step;
  if (a.entry != nullptr) {
    EXPECT_EQ(a.table, b.table) << "step " << step;
    EXPECT_EQ(*a.entry, *b.entry) << "step " << step;
  }
  EXPECT_EQ(p.faithful.forward_location(probe), p.indexed.forward_location(probe));
  EXPECT_EQ(p.faithful.claim_of(probe), p.indexed.claim_of(probe));
  EXPECT_EQ(p.faithful.is_cached(probe), p.indexed.is_cached(probe));
  EXPECT_EQ(p.faithful.total_entries(), p.indexed.total_entries());
}

TEST(MappingTablesDifferential, IndexedMatchesFaithfulUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    AdcConfig config = small_config(1 + rng.below(8), 1 + rng.below(8), 1 + rng.below(8));
    config.selective_caching = rng.below(5) != 0;  // every fifth config: ABL-SEL
    TablePair p(config);
    const ObjectId universe = 2 * (config.single_table_size + config.multiple_table_size +
                                   config.caching_table_size);
    SimTime now = 0;
    for (int step = 0; step < 3000; ++step) {
      random_step(p, rng, now, universe, step);
      expect_same_tables(p, step);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " single " << config.single_table_size << " multiple "
               << config.multiple_table_size << " caching " << config.caching_table_size
               << " selective " << config.selective_caching;
      }
    }
  }
}

void expect_same_worst(const TableView& a, const TableView& b, int step) {
  ASSERT_EQ(a.worst() == nullptr, b.worst() == nullptr) << "step " << step;
  if (a.worst() != nullptr) {
    EXPECT_EQ(*a.worst(), *b.worst()) << "step " << step;
  }
}

// Deep heaps with a narrow skew range: ties decide most evictions, and the
// indexed heaps are several levels deep.
TEST(MappingTablesDifferential, DeepTablesWithManyTiesMatchFaithful) {
  TablePair p(small_config(/*single=*/64, /*multiple=*/300, /*caching=*/150));
  util::Rng rng(99);
  SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    random_step(p, rng, now, /*universe=*/700, step);
    expect_same_worst(p.faithful.multiple(), p.indexed.multiple(), step);
    expect_same_worst(p.faithful.caching(), p.indexed.caching(), step);
    if (step % 50 == 0) expect_same_tables(p, step);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "step " << step;
  }
  expect_same_tables(p, -1);
}

}  // namespace
}  // namespace adc::core
