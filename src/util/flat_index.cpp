#include "util/flat_index.h"

#include <cassert>

namespace adc::util {

FlatIndex::FlatIndex(std::size_t expected) {
  std::size_t buckets = 8;
  while (buckets < 2 * expected) buckets *= 2;
  rehash(buckets);
}

void FlatIndex::assign(std::uint64_t key, std::uint32_t slot) {
  assert(slot != kNone);
  if (4 * (size_ + 1) > 3 * buckets_.size()) rehash(2 * buckets_.size());
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    Bucket& b = buckets_[i];
    if (b.slot == kNone) {
      b.set_key(key);
      b.slot = slot;
      ++size_;
      return;
    }
    if (b.key() == key) {
      b.slot = slot;
      return;
    }
  }
}

bool FlatIndex::erase(std::uint64_t key) noexcept {
  std::size_t hole = home(key);
  for (;; hole = (hole + 1) & mask_) {
    const Bucket& b = buckets_[hole];
    if (b.slot == kNone) return false;
    if (b.key() == key) break;
  }
  // Backward-shift deletion: pull every later member of the probe run whose
  // home lies at or before the hole into it, so no lookup ever stops early.
  for (std::size_t next = (hole + 1) & mask_; buckets_[next].slot != kNone;
       next = (next + 1) & mask_) {
    const std::size_t displacement = (next - home(buckets_[next].key())) & mask_;
    if (displacement >= ((next - hole) & mask_)) {
      buckets_[hole] = buckets_[next];
      hole = next;
    }
  }
  buckets_[hole] = Bucket{};
  --size_;
  return true;
}

void FlatIndex::clear() noexcept {
  for (Bucket& b : buckets_) b = Bucket{};
  size_ = 0;
}

void FlatIndex::rehash(std::size_t buckets) {
  std::vector<Bucket> old(buckets);
  old.swap(buckets_);
  mask_ = buckets - 1;
  shift_ = 64;
  for (std::size_t n = buckets; n > 1; n /= 2) --shift_;
  block_local_ = buckets >= kBlockLocalBuckets;
  size_ = 0;
  for (const Bucket& b : old) {
    if (b.slot != kNone) assign(b.key(), b.slot);
  }
}

}  // namespace adc::util
