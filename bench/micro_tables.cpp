// Micro-benchmarks of the mapping-table operations (google-benchmark):
// single-table insert/lookup, ordered-table insert/remove/promote, and
// the full Update_Entry path, in both faithful and indexed modes.
//
// These isolate the per-operation costs behind Figure 15: the faithful
// structures scale linearly with the table size, the indexed ones stay
// flat.
#include <benchmark/benchmark.h>

#include "cache/ordered_table.h"
#include "cache/single_table.h"
#include "core/mapping_tables.h"
#include "util/rng.h"

namespace {

using namespace adc;

cache::TableImpl impl_of(const benchmark::State& state) {
  return state.range(1) == 0 ? cache::TableImpl::kFaithful : cache::TableImpl::kIndexed;
}

const char* impl_label(const benchmark::State& state) {
  return state.range(1) == 0 ? "faithful" : "indexed";
}

void BM_SingleTableChurn(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const auto table = cache::make_single_table(capacity, impl_of(state));
  util::Rng rng(7);
  // Pre-fill to capacity so every insert evicts and every lookup scans a
  // full table in faithful mode.
  for (std::size_t i = 0; i < capacity; ++i) {
    table->insert_on_top(cache::make_entry(i + 1, 0, static_cast<SimTime>(i)));
  }
  SimTime now = static_cast<SimTime>(capacity);
  for (auto _ : state) {
    const ObjectId object = 1 + rng.below(2 * capacity);
    if (auto entry = table->remove(object)) {
      entry->calc_average(++now);
      table->insert_on_top(*entry);
    } else {
      table->insert_on_top(cache::make_entry(object, 0, ++now));
    }
  }
  state.SetLabel(impl_label(state));
  state.SetItemsProcessed(state.iterations());
}

void BM_OrderedTableChurn(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  auto table = cache::make_ordered_table(capacity, impl_of(state));
  util::Rng rng(7);
  SimTime now = 0;
  for (std::size_t i = 0; i < capacity; ++i) {
    auto entry = cache::make_entry(i + 1, 0, ++now);
    entry.average = static_cast<SimTime>(rng.below(1000));
    table->insert(entry);
  }
  for (auto _ : state) {
    const ObjectId object = 1 + rng.below(2 * capacity);
    ++now;
    if (auto entry = table->remove(object)) {
      entry->calc_average(now);
      table->insert(*entry);
    } else {
      table->remove_worst();
      auto fresh = cache::make_entry(object, 0, now);
      fresh.average = static_cast<SimTime>(rng.below(1000));
      table->insert(fresh);
    }
  }
  state.SetLabel(impl_label(state));
  state.SetItemsProcessed(state.iterations());
}

void BM_UpdateEntry(benchmark::State& state) {
  core::AdcConfig config;
  config.single_table_size = static_cast<std::size_t>(state.range(0));
  config.multiple_table_size = static_cast<std::size_t>(state.range(0));
  config.caching_table_size = static_cast<std::size_t>(state.range(0)) / 2;
  config.table_impl = impl_of(state);
  core::MappingTables tables(config);
  util::Rng rng(7);
  SimTime now = 0;
  // Zipf-ish skew: small ids recur often, so entries flow between tables.
  const util::ZipfSampler zipf(4 * static_cast<std::size_t>(state.range(0)), 0.8);
  for (auto _ : state) {
    const auto object = static_cast<ObjectId>(zipf.sample(rng));
    tables.update_entry(object, static_cast<NodeId>(rng.below(5)), ++now);
  }
  state.SetLabel(impl_label(state));
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_SingleTableChurn)
    ->ArgsProduct({{1000, 4000, 16000}, {0, 1}})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_OrderedTableChurn)
    ->ArgsProduct({{1000, 4000, 16000}, {0, 1}})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_UpdateEntry)
    ->ArgsProduct({{1000, 4000, 16000}, {0, 1}})
    ->Unit(benchmark::kNanosecond);

BENCHMARK_MAIN();
