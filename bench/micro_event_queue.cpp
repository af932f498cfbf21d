// Micro-benchmarks of the simulator's event queue (google-benchmark): one
// schedule + run_next pair per iteration at a fixed number of pending
// events, the steady state of a closed-loop run.  The paper's experiment
// keeps one request in flight, so its queue never holds more than one
// event; the CARP erasure-crash workload peaks at 2,829 pending, most of
// them never-cancelled 2,000-tick request timeouts.
//
// Two ways to move a message through the queue:
//  * BM_TypedDelivery — schedule_delivery(): the queue copies the Message
//    into a recycled slot, the path Simulator::send takes;
//  * BM_MessageClosure — a std::function capturing the Message, the path
//    every send took before deliveries were typed (the capture exceeds the
//    small-buffer size, so each one allocates).
// The gap is the per-send saving; the absolute numbers bound events/s.
// BM_TypedDelivery's depth-2800 row models the CARP crash shape: one event
// in eight is a timeout 2,000 ticks ahead, the rest are hop-sized.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/message.h"

namespace {

using namespace adc;

/// Delivery latencies cycled through (client-proxy, proxy-proxy,
/// proxy-origin in the default LatencyModel).
constexpr SimTime kLatency[] = {1, 2, 10};

sim::Message sample_message(std::uint64_t i) {
  sim::Message msg;
  msg.kind = sim::MessageKind::kRequest;
  msg.request_id = i;
  msg.object = i * 7;
  msg.target = static_cast<NodeId>(i % 5);
  return msg;
}

/// range(0) events pending; with range(1) = n > 0, one event in n is a
/// request timeout 2,000 ticks ahead (the CARP crash shape).
void BM_TypedDelivery(benchmark::State& state) {
  constexpr SimTime kTimeout = 2000;
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  const auto timeout_every = static_cast<std::uint64_t>(state.range(1));
  const auto delay = [timeout_every](std::uint64_t i) {
    return timeout_every != 0 && i % timeout_every == 0 ? kTimeout : kLatency[i % 3];
  };
  sim::EventQueue queue;
  std::uint64_t sum = 0;
  const auto deliver = [&sum](const sim::Message& msg) { sum += msg.object; };
  for (std::uint64_t i = 0; i < depth; ++i) queue.schedule_delivery(delay(i), sample_message(i));
  std::uint64_t i = depth;
  for (auto _ : state) {
    const SimTime now = queue.run_next(deliver);
    queue.schedule_delivery(now + delay(i), sample_message(i));
    ++i;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

void BM_MessageClosure(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  sim::EventQueue queue;
  std::uint64_t sum = 0;
  const auto schedule = [&queue, &sum](SimTime at, const sim::Message& msg) {
    queue.schedule(at, [msg, &sum]() { sum += msg.object; });
  };
  for (std::uint64_t i = 0; i < depth; ++i) schedule(kLatency[i % 3], sample_message(i));
  std::uint64_t i = depth;
  for (auto _ : state) {
    const SimTime now = queue.run_next();
    schedule(now + kLatency[i % 3], sample_message(i));
    ++i;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_TypedDelivery)
    ->ArgNames({"depth", "timeout_every"})
    ->Args({1, 0})
    ->Args({16, 0})
    ->Args({256, 0})
    ->Args({2800, 8})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MessageClosure)->Arg(1)->Arg(16)->Arg(256)->Unit(benchmark::kNanosecond);

BENCHMARK_MAIN();
