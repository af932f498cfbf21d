// Per-layer replays: the workload's own inputs pushed through one module's
// public functions at a time, each loop timed by one span.  run.py divides
// a span's duration by its count to get the per-operation cost.
#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "cache/policies.h"
#include "core/mapping_tables.h"
#include "hash/carp.h"
#include "net/wire.h"
#include "perfbench.h"
#include "sim/event_queue.h"
#include "store/payload.h"
#include "store/rdp_coding.h"

namespace adc::perfbench {
namespace {

/// Objects whose stripes the erasure replays encode and rebuild.
constexpr std::size_t kRdpObjects = 1024;

/// Frames in the wire-codec replay.
constexpr std::size_t kWireFrames = 200000;

/// Keeps a replay's result observable so the loop cannot be elided.
volatile std::uint64_t g_sink = 0;

std::uint64_t replay_event_queue(std::uint64_t events, int concurrency, SpanRecorder& spans) {
  // The simulator schedules one closure per message send, each capturing
  // the message; keep as many events pending as the workload has in flight.
  const std::size_t depth = static_cast<std::size_t>(std::max(4, 2 * concurrency));
  constexpr SimTime kLatency[] = {1, 2, 10};
  sim::EventQueue queue;
  std::uint64_t sum = 0;
  sim::Message msg;
  ScopedSpan span(spans, "sim.EventQueue.schedule+run_next");
  for (std::size_t i = 0; i < depth; ++i) {
    msg.object = i;
    queue.schedule(kLatency[i % 3], [msg, &sum]() { sum += msg.object; });
  }
  for (std::uint64_t i = 0; i < events; ++i) {
    const SimTime now = queue.run_next();
    msg.object = i;
    queue.schedule(now + kLatency[i % 3], [msg, &sum]() { sum += msg.object; });
  }
  while (!queue.empty()) queue.run_next();
  span.set_count(events);
  return sum;
}

std::uint64_t replay_mapping_tables(const core::AdcConfig& adc, int proxies,
                                    const workload::Trace& trace, SpanRecorder& spans) {
  core::MappingTables tables(adc);
  std::uint64_t sum = 0;
  const auto& requests = trace.requests();
  {
    ScopedSpan span(spans, "core.MappingTables.update_entry");
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto placed = tables.update_entry(requests[i], static_cast<NodeId>(i % proxies),
                                              static_cast<SimTime>(i));
      sum += static_cast<std::uint64_t>(placed.placement);
    }
    span.set_count(requests.size());
  }
  {
    ScopedSpan span(spans, "core.MappingTables.forward_location");
    for (const ObjectId object : requests) {
      if (const auto location = tables.forward_location(object)) sum += *location;
    }
    span.set_count(requests.size());
  }
  return sum;
}

std::uint64_t replay_cache(const driver::ExperimentConfig& config, const store::PayloadStore& store,
                           const workload::Trace& trace, SpanRecorder& spans) {
  const std::size_t capacity = config.baseline_cache_capacity != 0
                                   ? config.baseline_cache_capacity
                                   : config.adc.caching_table_size;
  auto cache = cache::make_sized_cache(capacity, cache::Policy::kGdsf, config.payload.byte_budget,
                                       [&store](ObjectId object) { return store.size_of(object); });
  // Sizes are memoized by the store; warm them so the replay times the
  // policy, not the size derivation.
  for (const ObjectId object : trace.requests()) store.size_of(object);
  std::uint64_t sum = 0;
  ScopedSpan span(spans, "cache.CacheSet.lookup+insert_evicting");
  for (const ObjectId object : trace.requests()) {
    if (!cache->lookup(object)) sum += cache->insert_evicting(object).size();
  }
  span.set_count(trace.size());
  return sum + cache->hits;
}

std::uint64_t replay_carp(int proxies, const workload::Trace& trace, SpanRecorder& spans) {
  std::vector<hash::CarpArray::Member> members;
  for (int i = 0; i < proxies; ++i) {
    members.push_back({"proxy[" + std::to_string(i) + "]", static_cast<NodeId>(i), 1.0});
  }
  const hash::CarpArray carp(std::move(members));
  std::uint64_t sum = 0;
  ScopedSpan span(spans, "hash.CarpArray.owner");
  for (const ObjectId object : trace.requests()) sum += static_cast<std::uint64_t>(carp.owner(object));
  span.set_count(trace.size());
  return sum;
}

/// Encodes the stripes of the trace's first distinct objects, then rebuilds
/// a data chunk and the row parity of each; counts are KiB of object data.
std::uint64_t replay_rdp(const store::PayloadStore& store, const workload::Trace& trace,
                         SpanRecorder& spans) {
  const store::RdpCode& code = store.code();
  const int k = code.k();
  using Chunks = std::vector<std::vector<std::uint8_t>>;
  std::vector<Chunks> stripes;
  std::uint64_t object_bytes = 0;
  std::unordered_set<ObjectId> seen;
  for (const ObjectId object : trace.requests()) {
    if (stripes.size() >= kRdpObjects) break;
    if (!seen.insert(object).second) continue;
    object_bytes += store.size_of(object);
    const std::size_t chunk = code.padded_chunk_size(store.chunk_size(object));
    Chunks data(static_cast<std::size_t>(k), std::vector<std::uint8_t>(chunk, 0));
    for (int i = 0; i < k; ++i) {
      store.fill_chunk(object, i, data[static_cast<std::size_t>(i)].data(), chunk);
    }
    stripes.push_back(std::move(data));
  }
  const std::uint64_t kib = std::max<std::uint64_t>(1, object_bytes / 1024);

  std::vector<Chunks> full;
  {
    ScopedSpan span(spans, "store.RdpCode.encode");
    for (const Chunks& data : stripes) {
      std::vector<std::uint8_t> row, diag;
      code.encode(data, &row, &diag);
      Chunks stripe = data;
      stripe.push_back(std::move(row));
      stripe.push_back(std::move(diag));
      full.push_back(std::move(stripe));
    }
    span.set_count(kib);
  }
  std::vector<Chunks> damaged = full;
  for (Chunks& stripe : damaged) {
    stripe[0].clear();
    stripe[static_cast<std::size_t>(k)].clear();
  }
  {
    ScopedSpan span(spans, "store.RdpCode.reconstruct");
    for (Chunks& stripe : damaged) {
      if (!code.reconstruct(&stripe)) throw std::runtime_error("RDP reconstruction failed");
    }
    span.set_count(kib);
  }
  if (damaged != full) throw std::runtime_error("RDP reconstruction produced wrong chunks");
  return full.size();
}

/// The live frame mix: alternating requests and replies whose journey
/// paths follow the workload's hop distribution (90% median, 9% p95, 1%
/// longest); replies carry a body sample when the payload store is on.
std::uint64_t replay_wire(const WorkloadOutput& out, const store::PayloadStore& store,
                          SpanRecorder& spans, double* bytes_per_frame) {
  const auto& requests = out.trace.requests();
  const bool payload = out.config.payload.enabled;
  std::vector<net::WireMessage> frames(kWireFrames);
  for (std::size_t i = 0; i < kWireFrames; ++i) {
    net::WireMessage& w = frames[i];
    w.msg.kind = i % 2 == 0 ? sim::MessageKind::kRequest : sim::MessageKind::kReply;
    w.msg.request_id = i / 2;
    w.msg.object = requests[(i / 2) % requests.size()];
    w.msg.sender = static_cast<NodeId>(i % 5);
    w.msg.target = static_cast<NodeId>((i + 1) % 5);
    w.msg.client = 6;
    const int hops = i % 100 == 99 ? out.hops_max : i % 100 >= 90 ? out.hops_p95 : out.hops_p50;
    w.msg.hops = hops;
    for (int h = 0; h < hops; ++h) w.path.push_back(static_cast<NodeId>(h % 5));
    if (payload && w.msg.kind == sim::MessageKind::kReply) {
      w.msg.payload_bytes = store.size_of(w.msg.object);
      w.body.resize(std::min<std::size_t>(w.msg.payload_bytes, net::kMaxBodyBytes));
      store.fill_body(w.msg.object, w.body.data(), w.body.size());
      w.checksum = store.checksum(w.msg.object, w.msg.payload_bytes, w.body.data(), w.body.size());
    }
  }
  std::vector<std::uint8_t> buffer;
  {
    ScopedSpan span(spans, "net.encode_message");
    std::vector<std::uint8_t> frame;
    for (const net::WireMessage& w : frames) {
      frame.clear();
      net::encode_message(w, &frame);
      buffer.insert(buffer.end(), frame.begin(), frame.end());
    }
    span.set_count(kWireFrames);
  }
  *bytes_per_frame = static_cast<double>(buffer.size()) / static_cast<double>(kWireFrames);
  std::uint64_t decoded = 0;
  {
    ScopedSpan span(spans, "net.decode_frame");
    std::size_t offset = 0;
    net::Frame frame;
    while (offset < buffer.size()) {
      std::size_t consumed = 0;
      if (net::decode_frame(buffer.data() + offset, buffer.size() - offset, &consumed, &frame) !=
          net::DecodeResult::kFrame) {
        throw std::runtime_error("wire replay: frame failed to decode");
      }
      offset += consumed;
      decoded += frame.message.msg.object == 0 ? 0 : 1;
    }
    span.set_count(kWireFrames);
  }
  return decoded;
}

}  // namespace

Fields run_layer_replays(const WorkloadOutput& out, SpanRecorder& spans) {
  const driver::ExperimentConfig& config = out.config;
  const store::PayloadStore store(config.payload);
  std::uint64_t sink = 0;
  sink += replay_event_queue(out.events, config.concurrency, spans);
  sink += replay_mapping_tables(config.adc, config.proxies, out.trace, spans);
  sink += replay_cache(config, store, out.trace, spans);
  sink += replay_carp(config.proxies, out.trace, spans);
  sink += replay_rdp(store, out.trace, spans);
  double bytes_per_frame = 0.0;
  sink += replay_wire(out, store, spans, &bytes_per_frame);
  g_sink = sink;
  return {{"wire_bytes_per_frame", bytes_per_frame}, {"frames_per_req", out.frames_per_req}};
}

}  // namespace adc::perfbench
