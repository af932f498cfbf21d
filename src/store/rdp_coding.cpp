#include "store/rdp_coding.h"

#include <algorithm>
#include <cassert>

namespace adc::store {
namespace {

bool is_prime(int n) {
  if (n < 2) return false;
  for (int d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

int next_prime_at_least(int n) {
  while (!is_prime(n)) ++n;
  return n;
}

void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

}  // namespace

RdpCode::RdpCode(int data_chunks)
    : k_(std::clamp(data_chunks, kMinDataChunks, kMaxDataChunks)),
      p_(next_prime_at_least(k_ + 1)) {}

std::size_t RdpCode::padded_chunk_size(std::size_t raw_chunk_size) const noexcept {
  const std::size_t rows = static_cast<std::size_t>(p_ - 1);
  if (raw_chunk_size == 0) return rows;  // one zero block per row keeps sizes unambiguous
  return (raw_chunk_size + rows - 1) / rows * rows;
}

void RdpCode::encode(const std::vector<std::vector<std::uint8_t>>& data,
                     std::vector<std::uint8_t>* row, std::vector<std::uint8_t>* diag) const {
  assert(static_cast<int>(data.size()) == k_);
  const std::size_t chunk = data[0].size();
  const std::size_t rows = static_cast<std::size_t>(p_ - 1);
  assert(chunk % rows == 0);
  const std::size_t s = chunk / rows;  // bytes per block

  row->assign(chunk, 0);
  diag->assign(chunk, 0);

  // Row parity: row[r] = XOR of the data blocks in row r (virtual disks
  // k..p-2 are all-zero and contribute nothing).
  for (int c = 0; c < k_; ++c) {
    assert(data[c].size() == chunk);
    xor_into(row->data(), data[c].data(), chunk);
  }

  // Diagonal parity over disks 0..p-1 (data + row parity): the block of
  // disk c in row r lies on diagonal (c + r) mod p; diagonal p-1 is not
  // stored.
  for (int c = 0; c <= p_ - 1; ++c) {
    const std::uint8_t* col = nullptr;
    if (c < k_) {
      col = data[c].data();
    } else if (c == p_ - 1) {
      col = row->data();
    } else {
      continue;  // virtual zero disk
    }
    for (int r = 0; r < p_ - 1; ++r) {
      const int d = (c + r) % p_;
      if (d == p_ - 1) continue;  // the missing diagonal
      xor_into(diag->data() + static_cast<std::size_t>(d) * s, col + static_cast<std::size_t>(r) * s, s);
    }
  }
}

bool RdpCode::reconstruct(std::vector<std::vector<std::uint8_t>>* chunks) const {
  assert(chunks != nullptr && static_cast<int>(chunks->size()) == stripe_width());

  std::vector<int> erased;
  std::size_t chunk = 0;
  for (int i = 0; i < stripe_width(); ++i) {
    const auto& c = (*chunks)[i];
    if (c.empty()) {
      erased.push_back(i);
    } else if (chunk == 0) {
      chunk = c.size();
    } else if (c.size() != chunk) {
      return false;
    }
  }
  if (erased.size() > 2) return false;
  if (erased.empty()) return true;
  const std::size_t rows = static_cast<std::size_t>(p_ - 1);
  if (chunk == 0 || chunk % rows != 0) return false;
  const std::size_t s = chunk / rows;

  // Lay the stripe out as the virtual (p + 1)-disk array: disks 0..p-2 are
  // data (k real + shortened zeros), disk p-1 row parity, disk p diagonal
  // parity.  known[c][r] tracks which blocks hold real values.
  const int disks = p_ + 1;
  std::vector<std::vector<std::uint8_t>> block(
      static_cast<std::size_t>(disks) * rows, std::vector<std::uint8_t>(s, 0));
  std::vector<char> known(static_cast<std::size_t>(disks) * rows, 0);
  const auto at = [&](int c, std::size_t r) -> std::size_t {
    return static_cast<std::size_t>(c) * rows + r;
  };
  const auto disk_of = [&](int real_index) {
    if (real_index < k_) return real_index;
    return real_index == k_ ? p_ - 1 : p_;
  };

  for (int c = 0; c < disks; ++c) {
    const bool is_virtual_zero = c >= k_ && c < p_ - 1;
    int real = -1;
    if (c < k_) real = c;
    if (c == p_ - 1) real = k_;
    if (c == p_) real = k_ + 1;
    const bool have = is_virtual_zero || !(*chunks)[static_cast<std::size_t>(real)].empty();
    for (std::size_t r = 0; r < rows; ++r) {
      if (!have) continue;
      known[at(c, r)] = 1;
      if (!is_virtual_zero) {
        const auto& src = (*chunks)[static_cast<std::size_t>(real)];
        std::copy(src.begin() + static_cast<std::ptrdiff_t>(r * s),
                  src.begin() + static_cast<std::ptrdiff_t>((r + 1) * s),
                  block[at(c, r)].begin());
      }
    }
  }

  // If the diagonal-parity chunk is erased, the other erasure (if any) must
  // be row-recoverable first; the diagonal is then recomputed outright, so
  // drop it from the peeling unknowns.
  const bool diag_erased =
      std::find(erased.begin(), erased.end(), k_ + 1) != erased.end();

  // Equation peeling: repeatedly solve any row or diagonal equation with
  // exactly one unknown block.  For <= 2 erasures this is exactly the
  // published RDP chain (the p-prime step argument guarantees progress).
  bool progress = true;
  while (progress) {
    progress = false;
    // Row equations: XOR over disks 0..p-1 of block(c, r) == 0.
    for (std::size_t r = 0; r < rows; ++r) {
      int unknown = -1;
      int unknowns = 0;
      for (int c = 0; c <= p_ - 1; ++c) {
        if (!known[at(c, r)]) {
          ++unknowns;
          unknown = c;
        }
      }
      if (unknowns != 1) continue;
      auto& out = block[at(unknown, r)];
      std::fill(out.begin(), out.end(), 0);
      for (int c = 0; c <= p_ - 1; ++c) {
        if (c == unknown) continue;
        xor_into(out.data(), block[at(c, r)].data(), s);
      }
      known[at(unknown, r)] = 1;
      progress = true;
    }
    // Diagonal equations (only when the diagonal chunk is present): the
    // blocks of disks 0..p-1 on diagonal d XOR to diag block d.
    if (!diag_erased) {
      for (int d = 0; d < p_ - 1; ++d) {
        int unknown_c = -1;
        std::size_t unknown_r = 0;
        int unknowns = 0;
        for (int c = 0; c <= p_ - 1; ++c) {
          const int r = (d - c % p_ + p_) % p_;
          if (r > p_ - 2) continue;  // this disk has no block on diagonal d
          if (!known[at(c, static_cast<std::size_t>(r))]) {
            ++unknowns;
            unknown_c = c;
            unknown_r = static_cast<std::size_t>(r);
          }
        }
        if (unknowns != 1) continue;
        auto& out = block[at(unknown_c, unknown_r)];
        // Start from the diagonal parity block, XOR out every known member.
        std::copy(block[at(p_, static_cast<std::size_t>(d))].begin(),
                  block[at(p_, static_cast<std::size_t>(d))].end(), out.begin());
        for (int c = 0; c <= p_ - 1; ++c) {
          const int r = (d - c % p_ + p_) % p_;
          if (r > p_ - 2 || c == unknown_c) continue;
          xor_into(out.data(), block[at(c, static_cast<std::size_t>(r))].data(), s);
        }
        known[at(unknown_c, unknown_r)] = 1;
        progress = true;
      }
    }
  }

  // Every non-diagonal erasure must be fully peeled by now.
  for (const int real : erased) {
    if (real == k_ + 1) continue;
    const int c = disk_of(real);
    for (std::size_t r = 0; r < rows; ++r) {
      if (!known[at(c, r)]) return false;
    }
    auto& out = (*chunks)[static_cast<std::size_t>(real)];
    out.assign(chunk, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(block[at(c, r)].begin(), block[at(c, r)].end(),
                out.begin() + static_cast<std::ptrdiff_t>(r * s));
    }
  }

  if (diag_erased) {
    // All of disks 0..p-1 are known; recompute the diagonal chunk.
    std::vector<std::uint8_t> diag(chunk, 0);
    for (int c = 0; c <= p_ - 1; ++c) {
      for (std::size_t r = 0; r < rows; ++r) {
        const int d = (c + static_cast<int>(r)) % p_;
        if (d == p_ - 1) continue;
        xor_into(diag.data() + static_cast<std::size_t>(d) * s, block[at(c, r)].data(), s);
      }
    }
    (*chunks)[static_cast<std::size_t>(k_ + 1)] = std::move(diag);
  }
  return true;
}

}  // namespace adc::store
