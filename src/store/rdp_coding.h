// Row-Diagonal Parity erasure coding (Corbett et al., FAST'04).
//
// RDP protects p + 1 "disks" (here: stripe chunks) against any double
// erasure using XOR only: disks 0..p-2 hold data, disk p-1 holds row
// parity, disk p holds diagonal parity, where p is prime.  Each disk is
// split into p-1 blocks; row r of the array satisfies
//
//   XOR_{c=0..p-1} block(c, r) = 0                       (row equations)
//
// and diagonal d in 0..p-2 satisfies
//
//   XOR over { block(c, r) : (c + r) mod p == d, c <= p-1 } = diag[d]
//
// with diagonal p-1 intentionally unstored (the "missing diagonal" that
// makes the reconstruction chain terminate).  We support k <= p-1 real
// data chunks by shortening: disks k..p-2 are virtual all-zero columns.
//
// Reconstruction is implemented as equation peeling — repeatedly solve any
// row/diagonal equation with exactly one unknown block — which recovers
// every <= 2-erasure combination the published chained algorithm does and
// is easy to audit; tests exercise all erasure pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adc::store {

class RdpCode {
 public:
  /// Bounds on k.  Below 2 a stripe degenerates to replication; above 62
  /// the stripe (k + 2 chunks) no longer fits the 64-bit chunk-index masks
  /// and the fixed stripe arrays the erasure tier places with.
  static constexpr int kMinDataChunks = 2;
  static constexpr int kMaxDataChunks = 62;

  /// `data_chunks` = k (clamped to [kMinDataChunks, kMaxDataChunks]); p
  /// becomes the smallest prime >= k + 1.
  explicit RdpCode(int data_chunks);

  int k() const noexcept { return k_; }
  int p() const noexcept { return p_; }

  /// Total real chunks in a stripe: k data + row parity + diagonal parity.
  int stripe_width() const noexcept { return k_ + 2; }

  /// Chunks must be sized in multiples of (p - 1) blocks; this rounds a raw
  /// chunk length up to the next encodable size (callers zero-pad).
  std::size_t padded_chunk_size(std::size_t raw_chunk_size) const noexcept;

  /// Computes row and diagonal parity over `data` (exactly k chunks, all of
  /// the same padded size).  `row` and `diag` are resized to match.
  void encode(const std::vector<std::vector<std::uint8_t>>& data,
              std::vector<std::uint8_t>* row, std::vector<std::uint8_t>* diag) const;

  /// Rebuilds erased chunks in place.  `chunks` holds stripe_width()
  /// entries — indices 0..k-1 data, k row parity, k+1 diagonal parity — and
  /// an empty vector marks an erasure.  Returns false when more than two
  /// chunks are erased (or sizes disagree); on success every entry is
  /// filled.
  bool reconstruct(std::vector<std::vector<std::uint8_t>>* chunks) const;

 private:
  int k_;
  int p_;
};

}  // namespace adc::store
