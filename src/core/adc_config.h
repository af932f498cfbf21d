// Tunables of the ADC algorithm — exactly the parameter space the paper
// sweeps (Section V.1) plus the ablation switches DESIGN.md calls out.
#pragma once

#include <cstddef>

#include "cache/table_store.h"

namespace adc::core {

struct AdcConfig {
  /// Paper defaults (Section V.2): 20k single, 20k multiple, 10k caching.
  std::size_t single_table_size = 20000;
  std::size_t multiple_table_size = 20000;
  std::size_t caching_table_size = 10000;

  /// Maximum request forwards between proxies before the next proxy must
  /// terminate the search at the origin server (Section III.1).  The paper
  /// leaves the value unspecified ("can be set"); 8 keeps random walks
  /// bounded while loops remain the dominant terminator for small systems.
  int max_forwards = 8;

  /// Mapping-table internals: the paper's structures or hash-indexed ones.
  cache::TableImpl table_impl = cache::TableImpl::kIndexed;

  /// Ablation ABL-SEL — when false, the ordered caching table is replaced
  /// by a plain LRU cache that admits every object passing on the
  /// backwarding path (the strategy the paper argues against in III.4).
  bool selective_caching = true;

  /// Ablation ABL-BWD — when false, relaying proxies do not learn from
  /// passing replies; only cache-hit proxies and the proxy that contacted
  /// the origin update their tables (disables multicast-by-backwarding).
  bool backward_multicast = true;
};

}  // namespace adc::core
