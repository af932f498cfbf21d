// The mapping-table row shared by the single-, multiple- and caching
// tables (paper Figures 1-3): object id, assigned location, last-access
// time, average inter-request time and hit count.
//
// Aging (paper Figure 4):  T_age = (T_average + (T_now - T_last)) / 2.
// Because every entry ages at the same rate, the order of two entries under
// T_age is the order of the time-invariant skew  T_average - T_last; the
// ordered tables key on that skew, which makes the paper's claim that "an
// established table order remains the same during the aging process" hold
// by construction.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace adc::cache {

struct TableEntry {
  ObjectId object = 0;

  /// The proxy believed responsible for the object.  A proxy stores its own
  /// NodeId here to express the paper's THIS marker.
  NodeId location = kInvalidNode;

  /// Local time of the most recent request for this object (column LAST).
  SimTime last = 0;

  /// Moving average of the gap between consecutive requests (column AVG);
  /// 0 until the object has been requested twice.
  SimTime average = 0;

  /// Total observed requests (column HITS).  Kept for reporting only — the
  /// paper deliberately excludes it from the average computation.
  std::uint64_t hits = 1;

  /// Version of the object data this entry's cached copy carries (only
  /// meaningful for caching-table entries; see sim/version.h).  0 when
  /// versioning is disabled.
  std::uint64_t version = 0;

  /// Resolver-claim version this location was learned at (monotone per
  /// object; see sim::Message::claim).  Update_Entry rejects updates whose
  /// claim is older than this.  Not an ordering key — the tables order on
  /// skew only — so it may be rewritten in place.  0 = unversioned.
  std::uint64_t claim = 0;

  /// Paper Figure 9 (Calc_Average): on the second request the raw gap
  /// becomes the average; afterwards a two-point moving average.  Always
  /// refreshes the last-access stamp and increments HITS.
  void calc_average(SimTime now) noexcept {
    if (hits == 1) {
      average = now - last;
    } else {
      average = (average + (now - last)) / 2;
    }
    ++hits;
    last = now;
  }

  /// Current aged value (paper Figure 4).  Lower is better (hotter).
  double aged(SimTime now) const noexcept {
    return (static_cast<double>(average) + static_cast<double>(now - last)) / 2.0;
  }

  /// Time-invariant ordering key: entries with smaller skew have smaller
  /// aged value at every instant.
  SimTime skew() const noexcept { return average - last; }

  /// Lookup key in the indexed tables (util::KeyedList).
  std::uint64_t key() const noexcept { return object; }
};

/// Creates the paper's "part 4" fresh entry: AVG 0, HITS 1, LAST = now.
inline TableEntry make_entry(ObjectId object, NodeId location, SimTime now) noexcept {
  TableEntry e;
  e.object = object;
  e.location = location;
  e.last = now;
  e.average = 0;
  e.hits = 1;
  return e;
}

}  // namespace adc::cache
