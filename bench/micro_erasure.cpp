// Micro-benchmarks of the erasure tier's hot paths (google-benchmark):
//
//  * BM_StripePeers / BM_EffectiveOwners — rendezvous placement of one
//    object's k + 2 chunks over the membership, and the replacement-owner
//    election once one stripe peer is believed dead;
//  * BM_DirectoryRecordEvict — one kStripeStore into a byte-budgeted chunk
//    directory that is full, so every record evicts the LRU tail;
//  * BM_DirectoryFill — 85k kStripeStores of new objects into an empty,
//    unbudgeted directory (one node's share under sim-carp-erasure-crash):
//    record_chunk's cold-miss path, where the refresh probe misses and a
//    row and an index key are added.  `shuffled:0` stores ids in order, as
//    a run introduces them; `shuffled:1` stores the same ids in a random
//    order, which no block-local index layout can keep in cache.
//    `bytes_per_chunk` is the heap the filled directory holds per entry
//    (glibc's mallinfo2; a sanitizer's allocator bypasses it, so sanitizer
//    builds read about 0);
//  * BM_PeerDeadScan — the repair leader's scan of a 100k-entry directory
//    when a peer dies (every held object re-placed, dead-owned chunks
//    queued for repair); the matching rejoin that cancels the queue runs
//    untimed between iterations.
//
// Items are objects placed, chunks recorded and directory entries scanned.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "sim/message.h"
#include "store/erasure_tier.h"
#include "util/rng.h"

namespace {

using namespace adc;

store::PayloadStorePtr make_store(std::uint64_t directory_budget, bool restripe) {
  store::PayloadConfig config;
  config.enabled = true;
  config.erasure.enabled = true;
  config.erasure.data_chunks = 3;
  config.erasure.directory_budget = directory_budget;
  config.erasure.restripe = restripe;
  return std::make_shared<const store::PayloadStore>(config);
}

std::vector<NodeId> members(int n) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < n; ++id) out.push_back(id);
  return out;
}

sim::Message stripe_store(ObjectId object, int index, std::uint64_t bytes) {
  sim::Message msg;
  msg.kind = sim::MessageKind::kStripeStore;
  msg.object = object;
  msg.sender = 1;
  msg.target = 0;
  msg.resolver = static_cast<NodeId>(index);
  msg.payload_bytes = bytes;
  return msg;
}

void BM_StripePeers(benchmark::State& state) {
  const store::ErasureTier tier(0, make_store(0, false), members(static_cast<int>(state.range(0))));
  ObjectId object = 0;
  for (auto _ : state) benchmark::DoNotOptimize(tier.stripe_peers(object++));
  state.SetItemsProcessed(state.iterations());
}

void BM_EffectiveOwners(benchmark::State& state) {
  store::ErasureTier tier(0, make_store(0, false), members(static_cast<int>(state.range(0))));
  tier.handle_peer_dead(1);
  ObjectId object = 0;
  for (auto _ : state) benchmark::DoNotOptimize(tier.effective_owners(object++));
  state.SetItemsProcessed(state.iterations());
}

void BM_DirectoryRecordEvict(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  // Chunks of the default size distribution average a few KiB; a budget of
  // 4 KiB per entry keeps about `entries` chunks resident.
  const auto store = make_store(entries * 4096, false);
  store::ErasureTier tier(0, store, members(8));
  ObjectId object = 0;
  for (; tier.stats().chunks_evicted == 0; ++object) {
    tier.on_stripe_store(stripe_store(object, 0, store->chunk_size(object)));
  }
  for (auto _ : state) {
    tier.on_stripe_store(stripe_store(object, 0, store->chunk_size(object)));
    ++object;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["entries"] = static_cast<double>(tier.directory_entries());
}

/// Heap bytes the allocator has handed out and not yet taken back.
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

void BM_DirectoryFill(benchmark::State& state) {
  const auto entries = static_cast<ObjectId>(state.range(0));
  std::vector<ObjectId> objects(entries);
  std::iota(objects.begin(), objects.end(), ObjectId{0});
  if (state.range(1) != 0) {
    util::Rng rng(17);
    rng.shuffle(objects);
  }
  const auto store = make_store(0, false);
  std::size_t held = 0;
  for (auto _ : state) {
    const std::size_t before = heap_in_use();
    store::ErasureTier tier(0, store, members(8));
    for (const ObjectId object : objects) tier.on_stripe_store(stripe_store(object, 0, 4096));
    const std::size_t after = heap_in_use();
    held = after > before ? after - before : 0;
    benchmark::DoNotOptimize(tier.directory_entries());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(entries));
  state.counters["bytes_per_chunk"] = static_cast<double>(held) / static_cast<double>(entries);
}

void BM_PeerDeadScan(benchmark::State& state) {
  const auto entries = static_cast<ObjectId>(state.range(0));
  const auto store = make_store(0, true);
  store::ErasureTier tier(0, store, members(8));
  // Hold the chunk this node really owns for every object striped onto it.
  for (ObjectId object = 0; tier.directory_entries() < entries; ++object) {
    const std::vector<NodeId> peers = tier.stripe_peers(object);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      if (peers[i] == 0) {
        tier.on_stripe_store(stripe_store(object, static_cast<int>(i), store->chunk_size(object)));
      }
    }
  }
  NodeId victim = 1;
  std::size_t queued = 0;
  for (auto _ : state) {
    tier.handle_peer_dead(victim);
    state.PauseTiming();
    queued = tier.restripe_queued();
    tier.handle_peer_joined(victim);  // cancels the queued repair work
    victim = victim % 7 + 1;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(entries));
  state.counters["queued"] = static_cast<double>(queued);
}

}  // namespace

BENCHMARK(BM_StripePeers)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_EffectiveOwners)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_DirectoryRecordEvict)->Arg(1000)->Arg(100000)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_DirectoryFill)
    ->ArgNames({"entries", "shuffled"})
    ->Args({85000, 0})
    ->Args({85000, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PeerDeadScan)->Arg(100000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
