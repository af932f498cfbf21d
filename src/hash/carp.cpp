#include "hash/carp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace adc::hash {
namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

}  // namespace

std::uint32_t carp_url_hash(std::string_view url) noexcept {
  std::uint32_t hash = 0;
  for (char c : url) {
    hash += rotl32(hash, 19) + static_cast<std::uint8_t>(c);
  }
  return hash;
}

std::string member_name(NodeId id) { return "proxy[" + std::to_string(id) + "]"; }

std::uint32_t carp_member_hash(std::string_view proxy_name) noexcept {
  std::uint32_t hash = 0;
  for (char c : proxy_name) {
    hash += rotl32(hash, 19) + static_cast<std::uint8_t>(c);
  }
  hash += hash * 0x62531965u;
  return rotl32(hash, 21);
}

std::uint32_t carp_combine(std::uint32_t url_hash, std::uint32_t member_hash) noexcept {
  std::uint32_t combined = url_hash ^ member_hash;
  combined += combined * 0x62531965u;
  return rotl32(combined, 21);
}

CarpArray::CarpArray(std::vector<Member> members) : members_(std::move(members)) {
  member_hashes_.reserve(members_.size());
  for (const auto& m : members_) member_hashes_.push_back(carp_member_hash(m.name));

  // Load-factor multipliers per the draft: sort by load factor ascending,
  // compute cumulative products so a member with k times the load factor
  // receives k times the URL space in expectation.
  const std::size_t n = members_.size();
  multipliers_.assign(n, 1.0);
  if (n == 0) return;

  double total = 0.0;
  for (const auto& m : members_) total += m.load_factor;
  assert(total > 0.0);

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return members_[a].load_factor < members_[b].load_factor;
  });

  // X_1 = (n * p_1)^(1/n); X_k derived recursively (draft section 3.4).
  std::vector<double> x(n, 1.0);
  const double p1 = members_[order[0]].load_factor / total;
  x[0] = std::pow(static_cast<double>(n) * p1, 1.0 / static_cast<double>(n));
  double product = x[0];
  double prev_p = p1;
  for (std::size_t k = 1; k < n; ++k) {
    const double pk = members_[order[k]].load_factor / total;
    const double nk = static_cast<double>(n - k);
    double xk = (nk * (pk - prev_p)) / product;
    xk += std::pow(x[k - 1], nk);
    xk = std::pow(xk, 1.0 / nk);
    x[k] = xk;
    product *= xk;
    prev_p = pk;
  }
  for (std::size_t k = 0; k < n; ++k) multipliers_[order[k]] = x[k];
}

std::size_t CarpArray::select(std::uint32_t url_hash) const noexcept {
  assert(!members_.empty());
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const std::uint32_t combined = carp_combine(url_hash, member_hashes_[i]);
    const double score = static_cast<double>(combined) * multipliers_[i];
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

std::size_t CarpArray::owner_index(std::string_view url) const noexcept {
  return select(carp_url_hash(url));
}

NodeId CarpArray::owner(std::string_view url) const noexcept {
  return members_[owner_index(url)].node;
}

std::size_t CarpArray::owner_index(ObjectId oid) const noexcept {
  // Fold the 64-bit id into the 32-bit URL-hash domain.
  const auto folded = static_cast<std::uint32_t>(oid ^ (oid >> 32));
  return select(folded);
}

NodeId CarpArray::owner(ObjectId oid) const noexcept {
  return members_[owner_index(oid)].node;
}

}  // namespace adc::hash
