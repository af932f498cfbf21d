#include "util/flat_index.h"

namespace adc::util::flat_detail {

template <typename Bucket>
Table<Bucket>::Table(std::size_t expected) {
  std::size_t buckets = 8;
  while (buckets < 2 * expected) buckets *= 2;
  buckets_.resize(buckets);
  set_layout();
}

template <typename Bucket>
void Table<Bucket>::erase_at(std::size_t hole) noexcept {
  for (std::size_t next = (hole + 1) & mask_; !buckets_[next].empty();
       next = (next + 1) & mask_) {
    const std::size_t displacement = (next - home(tag_of(buckets_[next]))) & mask_;
    if (displacement >= ((next - hole) & mask_)) {
      buckets_[hole] = buckets_[next];
      hole = next;
    }
  }
  buckets_[hole] = Bucket{};
  --size_;
}

template <typename Bucket>
void Table<Bucket>::clear() noexcept {
  for (Bucket& b : buckets_) b = Bucket{};
  size_ = 0;
}

template <typename Bucket>
void Table<Bucket>::set_layout() noexcept {
  const std::size_t buckets = buckets_.size();
  // A 32-bit tag carries the home of up to 2^29 buckets (4 GiB) in either
  // layout: the block-local one keeps 3 of its bits for key & 7.
  assert(buckets <= (std::size_t{1} << 29));
  mask_ = buckets - 1;
  shift_ = 32;
  for (std::size_t n = buckets; n > 1; n /= 2) --shift_;
  block_local_ = buckets >= kBlockLocalBuckets;
}

template class Table<SlotBucket>;
template class Table<KeyBucket>;

}  // namespace adc::util::flat_detail
