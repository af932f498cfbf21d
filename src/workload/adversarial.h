// Hostile and extreme workload generators (ROADMAP: adversarial suite).
//
// The Polygraph generator produces well-behaved traffic; real proxy
// workloads are heavy-tailed and shift locality abruptly (Dolgikh & Sukhov;
// Jain, DEC-TR-592).  This module produces the three hostile scenarios the
// scheme comparison is weakest against:
//
//   * Hash flood — an attacker mines URL keys that all hash onto one
//     CARP/ring/HRW owner and floods them, concentrating the cluster's
//     load on a single member.  Keys are mined against the *real* owner
//     maps in src/hash (the same arrays the proxies route with), so the
//     collision property is verified, not approximated.
//   * Flash crowd — a cold URL ramps from zero to a configurable share of
//     all traffic (~30%) within a configurable window, then sustains.
//   * Diurnal swing — traffic rotates between regional hot sets following
//     a raised-cosine day cycle, so the active working set migrates
//     instead of staying fixed.
//
// Every generator is driven by a seeded Rng: a config produces exactly one
// trace, so sim and live replays of a scenario are bit-comparable.  For
// planet-scale runs, scale the *request counts* in these configs (and
// PolygraphConfig::scaled(factor) with factor > 1 for the base trace) —
// bench/ext_adversarial and adc_loadgen expose this as --scale N.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/types.h"
#include "workload/trace.h"

namespace adc::workload {

/// Owner-allocation scheme a hash flood is mined against.  Mining builds
/// the same member arrays driver::run_experiment and the adcd daemon build
/// (members named "proxy[i]" with NodeId i), so a mined key's owner in the
/// deployment is exactly the mined victim.
enum class FloodScheme : std::uint8_t {
  kCarp,        // hash::CarpArray (the paper's hashing baseline)
  kRing,        // hash::ConsistentHashRing
  kRendezvous,  // hash::RendezvousHash
};

/// Every accepted flood-scheme name, lower case, aliases included; each
/// scheme's first entry is its flood_scheme_name().  Also adc_loadgen's
/// `--flood-scheme` choices.
const std::vector<std::pair<std::string, FloodScheme>>& flood_scheme_names();

std::string_view flood_scheme_name(FloodScheme scheme) noexcept;

/// First object id of the mined-key candidate range.  Kept far above any
/// id Polygraph/WPB/the benign streams assign, so flood keys never alias a
/// benign object.
inline constexpr ObjectId kFloodKeyBase = ObjectId{1} << 41;

/// First object id of flash-crowd objects (disjoint from both the benign
/// range and the flood range).
inline constexpr ObjectId kCrowdObjectBase = ObjectId{1} << 40;

struct HashFloodConfig {
  FloodScheme scheme = FloodScheme::kCarp;

  /// Deployment size the keys are mined against (paper default: 5).
  int proxies = 5;

  /// Member index the flood concentrates on.
  int victim = 0;

  /// Distinct colliding objects to mine.  More keys defeat per-object
  /// caching: with enough distinct keys the victim's cache cannot absorb
  /// the flood.
  std::uint64_t flood_keys = 512;

  std::uint64_t requests = 200'000;

  /// Fraction of requests drawn uniformly from the mined flood set; the
  /// rest is benign Zipf background traffic.
  double flood_fraction = 0.8;

  /// Benign background: Zipf(1.1) popularity over object ids
  /// [1, benign_universe].
  std::uint64_t benign_universe = 30'000;

  std::uint64_t seed = 7;
};

/// Mines `config.flood_keys` object ids whose owner under the configured
/// scheme is member `config.victim`.  Deterministic in the config (keys
/// are scanned upward from kFloodKeyBase), independent of `seed`.
std::vector<ObjectId> mine_colliding_keys(const HashFloodConfig& config);

/// Owner index of `object` under the mining deployment — the cross-check
/// tests and benches use to verify placement against src/hash directly.
int flood_owner_of(FloodScheme scheme, int proxies, ObjectId object);

/// Flood trace: benign Zipf background with `flood_fraction` of requests
/// aimed uniformly at the mined colliding set.  Phases: {0, size} (one
/// request phase, like WPB).
Trace generate_hash_flood_trace(const HashFloodConfig& config);

struct FlashCrowdConfig {
  std::uint64_t requests = 200'000;

  /// Where the crowd starts and how fast it ramps, as fractions of the
  /// trace: the crowd object is stone cold before `ramp_begin`, its share
  /// of traffic ramps linearly from 0 to `peak_fraction` over
  /// `ramp_window`, then sustains at the peak to the end of the trace.
  double ramp_begin = 0.4;
  double ramp_window = 0.1;

  /// Peak share of all traffic on the crowd object(s) (the ROADMAP's
  /// "cold URL jumping to 30% of traffic").
  double peak_fraction = 0.3;

  /// Crowd URLs sharing the ramp (1 = the classic single-URL crowd).
  std::uint64_t crowd_objects = 1;

  /// Benign background stream (same shape as the flood generator's), in
  /// which a tenth of the requests introduce a brand-new object (the
  /// one-timer stream).
  std::uint64_t benign_universe = 30'000;

  std::uint64_t seed = 11;
};

/// Flash-crowd trace; phases {0, size}.
Trace generate_flash_crowd_trace(const FlashCrowdConfig& config);

struct DiurnalConfig {
  std::uint64_t requests = 200'000;

  /// Rotating regional hot sets ("timezones"); each owns a disjoint
  /// object-id band of 10,000 ids.
  std::uint64_t populations = 2;

  /// Full day cycles across the trace.
  double cycles = 2.0;

  /// Off-peak floor of a population's traffic share before normalization:
  /// 0 makes populations go fully silent at their trough, larger values
  /// keep a base load everywhere.
  double floor_weight = 0.05;

  std::uint64_t seed = 13;
};

/// Diurnal-swing trace: request i samples a population with weight
/// floor + (1 - floor) * cos^2 of its phase-shifted day position, then a
/// Zipf rank within it.  Phases {0, size}.
Trace generate_diurnal_trace(const DiurnalConfig& config);

/// Per-population request counts of a trace window [begin, end) under a
/// DiurnalConfig's band layout (index = population; trailing slot counts
/// out-of-band ids).  For tests and load-swing analysis.
std::vector<std::uint64_t> diurnal_population_counts(const DiurnalConfig& config,
                                                     const Trace& trace, std::uint64_t begin,
                                                     std::uint64_t end);

}  // namespace adc::workload
