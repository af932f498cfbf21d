// Position-tracked binary heap over a std::vector<Key>.
//
// std::push_heap and its kin keep a heap but never say where a key went,
// so they cannot re-rank or remove an arbitrary element.  These helpers
// keep the same implicit binary heap and report every key they move
// through `placed(key, pos)`; the caller stores that position next to the
// key's data and passes it back to re-sift or erase the key later.
//
// `before(a, b)` is a strict total order, true when `a` belongs nearer the
// root than `b`; heap[0] is the key nothing ranks before.  Users: the
// indexed ADC mapping tables (cache/table_store.h), whose keys are row ids
// ranked through their rows, and the LFU/GDSF caches (cache/policies.cpp),
// whose keys carry their priority inline.
#pragma once

#include <cstddef>
#include <vector>

namespace adc::util {

/// Restores the heap after the key at `pos` changed rank: moves it up past
/// every parent it ranks before, otherwise down past every child that
/// ranks before it.
template <typename Key, typename Before, typename Placed>
void heap_sift(std::vector<Key>& heap, std::size_t pos, Before&& before, Placed&& placed) {
  const Key key = heap[pos];
  const std::size_t start = pos;
  while (pos > 0 && before(key, heap[(pos - 1) / 2])) {
    const std::size_t parent = (pos - 1) / 2;
    heap[pos] = heap[parent];
    placed(heap[pos], pos);
    pos = parent;
  }
  if (pos == start) {
    const std::size_t n = heap.size();
    for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
      if (child + 1 < n && before(heap[child + 1], heap[child])) ++child;
      if (!before(heap[child], key)) break;
      heap[pos] = heap[child];
      placed(heap[pos], pos);
      pos = child;
    }
  }
  heap[pos] = key;
  placed(key, pos);
}

template <typename Key, typename Before, typename Placed>
void heap_push(std::vector<Key>& heap, const Key& key, Before&& before, Placed&& placed) {
  heap.push_back(key);
  heap_sift(heap, heap.size() - 1, before, placed);
}

/// Removes the key at `pos`; the last key fills the hole and is re-sifted.
template <typename Key, typename Before, typename Placed>
void heap_erase(std::vector<Key>& heap, std::size_t pos, Before&& before, Placed&& placed) {
  const Key last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;
  heap[pos] = last;
  heap_sift(heap, pos, before, placed);
}

}  // namespace adc::util
