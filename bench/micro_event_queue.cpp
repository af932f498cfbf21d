// Micro-benchmarks of the simulator's event queue (google-benchmark): one
// schedule + run_next pair per iteration at a fixed number of pending
// events, the steady state of a closed-loop run (the paper's experiment
// keeps one request in flight; 16 clients plus timers keep a few dozen).
//
// Two ways to move a message through the queue:
//  * BM_TypedDelivery — schedule_delivery(): the queue copies the Message
//    into a recycled slot, the path Simulator::send takes;
//  * BM_MessageClosure — a std::function capturing the Message, the path
//    every send took before deliveries were typed (the capture exceeds the
//    small-buffer size, so each one allocates).
// The gap is the per-send saving; the absolute numbers bound events/s.
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

void BM_TypedDelivery(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  sim::EventQueue queue;
  std::uint64_t sum = 0;
  const auto deliver = [&sum](const sim::Message& msg) { sum += msg.object; };
  for (std::uint64_t i = 0; i < depth; ++i) queue.schedule_delivery(kLatency[i % 3], sample_message(i));
  std::uint64_t i = depth;
  for (auto _ : state) {
    const SimTime now = queue.run_next(deliver);
    queue.schedule_delivery(now + kLatency[i % 3], sample_message(i));
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

BENCHMARK(BM_TypedDelivery)->Arg(1)->Arg(16)->Arg(256)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MessageClosure)->Arg(1)->Arg(16)->Arg(256)->Unit(benchmark::kNanosecond);

BENCHMARK_MAIN();
