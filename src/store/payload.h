// Deterministic synthetic object payloads.
//
// The paper simulates URL handling only — messages carry object ids and the
// scheme comparison is in requests.  This module adds the byte dimension:
// every ObjectId gets a *size* drawn from a Polygraph-style heavy-tailed
// distribution (lognormal body, Pareto tail) and a *content pattern*, both
// pure functions of (object, seed) via SplitMix64 streams.  No shared RNG
// state is consumed, so enabling or disabling the store cannot perturb any
// other stochastic choice — runs with the store disabled stay bit-identical
// to builds that never had it.
//
// Bodies are never materialized in the simulator; the live daemon fills a
// bounded sample of the pattern into each frame and the receiver re-derives
// the expected bytes from its own (identical) seed and verifies them, plus
// a checksum over the transmitted sample.  Chunks of the erasure tier
// (src/store/rdp_coding.h) are slices of the same pattern, so any node can
// regenerate, serve, or verify any chunk without ever having stored it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "store/rdp_coding.h"
#include "util/types.h"

namespace adc::store {

/// Erasure-tier knobs (consumed by store::ErasureTier).
struct ErasureConfig {
  bool enabled = false;

  /// Data chunks per stripe (RDP's k); the stripe spans k + 2 peers (k data
  /// chunks plus row and diagonal parity).  Clamped to [2, 62]
  /// (RdpCode::kMinDataChunks/kMaxDataChunks): a one-chunk stripe would let
  /// a proxy answer a degraded read from its own chunk, which is just
  /// replication, and a stripe wider than 64 chunks overflows the
  /// chunk-index masks of the stripe census.
  int data_chunks = 3;

  /// Byte budget for the per-proxy chunk directory; oldest chunks are
  /// forgotten beyond it.  0 = unlimited.
  std::uint64_t directory_budget = 0;

  /// Proactive re-stripe repair (src/store/restripe.h): after a confirmed
  /// death, surviving stripe leaders re-home the lost chunk onto the
  /// rendezvous-chosen replacement during anti-entropy rounds, restoring
  /// every affected stripe to full k + 2 width.  Off (the default) the
  /// tier behaves exactly like the repair-free build.
  bool restripe = false;

  /// Chunk bytes a repair leader may offer per anti-entropy round
  /// (0 = unlimited).  Bounds background repair traffic so it never
  /// starves foreground transfers; one oversized chunk still goes out
  /// alone rather than wedging the queue.
  std::uint64_t repair_bytes_per_round = 256 * 1024;

  /// Offers retried this many times (one per round) before the work item
  /// is abandoned — an unreachable replacement must not keep the repair
  /// scheduler armed forever.
  int repair_max_attempts = 5;
};

/// Payload universe parameters.  `seed` must be identical cluster-wide —
/// sizes, patterns and checksums are derived from it, and a mismatched node
/// would flag every received body as corrupt.
struct PayloadConfig {
  bool enabled = false;

  std::uint64_t seed = 97;

  /// Size clamp in bytes; sizes are drawn by PayloadStore::size_of.
  std::uint64_t min_bytes = 128;
  std::uint64_t max_bytes = 256 * 1024;

  /// Per-proxy cache byte budget.  0 keeps the count-only capacity from the
  /// paper's configuration; > 0 additionally bounds total cached bytes
  /// (size-aware policies evict until both constraints hold).
  std::uint64_t byte_budget = 0;

  ErasureConfig erasure;
};

/// Maximum body bytes serialized per frame (a sample of the pattern; the
/// remainder is regenerable).  Kept small so the wire frame stays bounded.
inline constexpr std::size_t kMaxBodySample = 256;

/// Derives sizes, patterns, chunks and checksums for the payload universe.
/// Every query is a pure function of (object, seed) over immutable state,
/// so one instance may be shared and queried from any number of threads.
class PayloadStore {
 public:
  explicit PayloadStore(const PayloadConfig& config);

  const PayloadConfig& config() const noexcept { return config_; }
  const RdpCode& code() const noexcept { return code_; }

  /// Heavy-tailed deterministic size, clamped to [min_bytes, max_bytes].
  std::uint64_t size_of(ObjectId object) const;

  /// Stripe chunk size: ceil(size / k).  Every chunk (data and parity) is
  /// accounted at this size.
  std::uint64_t chunk_size(ObjectId object) const;

  /// Fills `out` with the first min(size_of(object), max_len) pattern
  /// bytes; returns the number written.
  std::size_t fill_body(ObjectId object, std::uint8_t* out, std::size_t max_len) const;

  /// Fills `out` with up to max_len bytes of stripe chunk `index` (data
  /// chunks 0..k-1 are pattern slices; k and k+1 are RDP row/diagonal
  /// parity computed over the real slices).  Returns bytes written.
  std::size_t fill_chunk(ObjectId object, int index, std::uint8_t* out,
                         std::size_t max_len) const;

  /// Checksum over a transmitted body sample: FNV-1a of the bytes mixed
  /// with the total payload size and the object id, so truncation, bit
  /// flips and id confusion all surface as mismatches.
  std::uint64_t checksum(ObjectId object, std::uint64_t payload_bytes,
                         const std::uint8_t* body, std::size_t body_len) const;

  /// Verifies a received body sample against the locally regenerated
  /// pattern and the sender's checksum.
  bool verify_body(ObjectId object, std::uint64_t payload_bytes, const std::uint8_t* body,
                   std::size_t body_len, std::uint64_t claimed_checksum) const;

  /// Same for a stripe chunk sample.
  bool verify_chunk(ObjectId object, int index, std::uint64_t payload_bytes,
                    const std::uint8_t* body, std::size_t body_len,
                    std::uint64_t claimed_checksum) const;

  /// Rebuilds chunk `lost_index` by RDP equation peeling over the other
  /// k + 1 chunks (the re-stripe repair path: the leader reconstructs the
  /// dead peer's chunk instead of re-deriving it, so the erasure math is
  /// exercised on every live repair and verifiable against fill_chunk).
  /// Writes up to max_len bytes of the reconstructed chunk; returns bytes
  /// written, or 0 when the index is out of range or peeling fails.
  std::size_t reconstruct_chunk(ObjectId object, int lost_index, std::uint8_t* out,
                                std::size_t max_len) const;

 private:
  PayloadConfig config_;
  RdpCode code_;
};

using PayloadStorePtr = std::shared_ptr<const PayloadStore>;

/// Shared per-run context handed to every agent via enable_store(): the
/// store itself plus the proxy membership the erasure stripes span.
struct StoreContext {
  PayloadStorePtr store;
  std::vector<NodeId> proxies;  // sorted stripe membership at startup
};

}  // namespace adc::store
