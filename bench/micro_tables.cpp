// Micro-benchmarks of the mapping tables (google-benchmark): the one
// lookup each forwarded request makes (MappingTables::locate) and the full
// Update_Entry path, in both faithful and indexed modes.
//
// These isolate the per-operation costs behind Figure 15: the faithful
// structures scale linearly with the table size, the indexed ones stay
// flat.
#include <benchmark/benchmark.h>

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

/// Paper proportions: single and multiple of `size`, caching half of it.
core::AdcConfig config_of(const benchmark::State& state) {
  core::AdcConfig config;
  config.single_table_size = static_cast<std::size_t>(state.range(0));
  config.multiple_table_size = static_cast<std::size_t>(state.range(0));
  config.caching_table_size = static_cast<std::size_t>(state.range(0)) / 2;
  config.table_impl = impl_of(state);
  return config;
}

/// Zipf-ish skew over 4x the table size: small ids recur often, so entries
/// flow between tables and lookups both hit and miss.
util::ZipfSampler zipf_of(const benchmark::State& state) {
  return util::ZipfSampler(4 * static_cast<std::size_t>(state.range(0)), 0.8);
}

void BM_Locate(benchmark::State& state) {
  core::MappingTables tables(config_of(state));
  const util::ZipfSampler zipf = zipf_of(state);
  util::Rng rng(7);
  SimTime now = 0;
  // Fill the tables before timing the lookups.
  for (std::int64_t i = 0; i < 4 * state.range(0); ++i) {
    tables.update_entry(static_cast<ObjectId>(zipf.sample(rng)), 1, ++now);
  }
  std::uint64_t found = 0;
  for (auto _ : state) {
    const core::Located mine = tables.locate(static_cast<ObjectId>(zipf.sample(rng)));
    found += mine.entry != nullptr ? 1 : 0;
  }
  benchmark::DoNotOptimize(found);
  state.SetLabel(impl_label(state));
  state.SetItemsProcessed(state.iterations());
}

void BM_UpdateEntry(benchmark::State& state) {
  core::MappingTables tables(config_of(state));
  const util::ZipfSampler zipf = zipf_of(state);
  util::Rng rng(7);
  SimTime now = 0;
  for (auto _ : state) {
    const auto object = static_cast<ObjectId>(zipf.sample(rng));
    tables.update_entry(object, static_cast<NodeId>(rng.below(5)), ++now);
  }
  state.SetLabel(impl_label(state));
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

// The faithful scans stop at 4000 rows: filling 16000-row tables through
// them takes seconds per run.
BENCHMARK(BM_Locate)
    ->Args({1000, 0})
    ->Args({4000, 0})
    ->ArgsProduct({{1000, 4000, 16000}, {1}})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_UpdateEntry)
    ->ArgsProduct({{1000, 4000, 16000}, {0, 1}})
    ->Unit(benchmark::kNanosecond);

BENCHMARK_MAIN();
