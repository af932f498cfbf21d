#include "link/transfer_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace adc::link {
namespace {

/// Records delivery times off the Transport clock, like the simulator
/// suite's RecorderNode.
class ClockRecorder final : public sim::Node {
 public:
  ClockRecorder(NodeId id, sim::NodeKind kind, std::string name)
      : Node(id, kind, std::move(name)) {}

  void on_message(sim::Transport& net, const sim::Message& msg) override {
    received.push_back(msg);
    receive_times.push_back(net.now());
  }

  std::vector<sim::Message> received;
  std::vector<SimTime> receive_times;
};

struct Harness {
  sim::Simulator sim;
  ClockRecorder* sender = nullptr;
  ClockRecorder* a = nullptr;
  ClockRecorder* b = nullptr;

  explicit Harness(const sim::LatencyModel& latency) : sim(1, latency) {
    auto s = std::make_unique<ClockRecorder>(0, sim::NodeKind::kProxy, "s");
    auto na = std::make_unique<ClockRecorder>(1, sim::NodeKind::kProxy, "a");
    auto nb = std::make_unique<ClockRecorder>(2, sim::NodeKind::kProxy, "b");
    sender = s.get();
    a = na.get();
    b = nb.get();
    sim.add_node(std::move(s));
    sim.add_node(std::move(na));
    sim.add_node(std::move(nb));
  }
};

sim::LatencyModel flat_latency(SimTime ticks) {
  sim::LatencyModel latency;
  latency.client_proxy = ticks;
  latency.proxy_proxy = ticks;
  latency.proxy_origin = ticks;
  return latency;
}

LinkConfig egress_config(std::uint64_t bytes_per_sec) {
  LinkConfig config;
  config.enabled = true;
  config.ticks_per_second = 1000;
  config.node_egress_bytes_per_sec = bytes_per_sec;
  return config;
}

sim::Message payload_reply(NodeId from, NodeId to, std::uint64_t bytes) {
  sim::Message msg;
  msg.kind = sim::MessageKind::kReply;
  msg.sender = from;
  msg.target = to;
  msg.payload_bytes = bytes;
  return msg;
}

// Acceptance pin: a k-byte transfer over a c-bytes/sec link is delivered
// no earlier than k/c of simulated wall time (plus propagation) after it
// was enqueued on an idle egress.
TEST(TransferScheduler, SerializationTimeLowerBound) {
  constexpr std::uint64_t kBytes = 100'000;
  constexpr std::uint64_t kRate = 1'000'000;  // 1MB/s, 1000 ticks/s
  Harness h(flat_latency(2));
  TransferScheduler sched(h.sim, LinkModel(egress_config(kRate), kInvalidNode));
  h.sim.set_link_hook(&sched);

  h.sim.send(payload_reply(0, 1, kBytes));
  h.sim.run();

  ASSERT_EQ(h.a->receive_times.size(), 1u);
  // k/c = 0.1s = 100 ticks of serialization; propagation adds 2 more.
  const SimTime floor = static_cast<SimTime>(kBytes * 1000 / kRate) + 2;
  EXPECT_GE(h.a->receive_times[0], floor);
  // Pacing rounds each burst up, but the total must stay close: at
  // most one extra tick per quantum-sized burst.
  EXPECT_LE(h.a->receive_times[0], floor + 3);
  EXPECT_EQ(sched.stats().transfers, 1u);
  EXPECT_EQ(sched.stats().bytes, kBytes);
}

// Two transfers to the same destination serialize one after the other:
// the second's delivery reflects the first's full serialization time.
TEST(TransferScheduler, QueueingDelayAccumulates) {
  constexpr std::uint64_t kBytes = 100'000;
  Harness h(flat_latency(2));
  TransferScheduler sched(h.sim, LinkModel(egress_config(1'000'000), kInvalidNode));
  h.sim.set_link_hook(&sched);

  h.sim.send(payload_reply(0, 1, kBytes));
  h.sim.send(payload_reply(0, 1, kBytes));
  h.sim.run();

  ASSERT_EQ(h.a->receive_times.size(), 2u);
  EXPECT_GE(h.a->receive_times[0], 100 + 2);
  EXPECT_GE(h.a->receive_times[1], 200 + 2);
  EXPECT_EQ(sched.stats().queued, 1u);  // the second transfer waited
  EXPECT_GT(sched.stats().max_wait, 0);
}

// DRR: a 1KB mouse sharing the egress with a 1MB hog gets served after at
// most one quantum of the hog, not after the whole megabyte.
TEST(TransferScheduler, DrrInterleavesMouseWithHog) {
  Harness h(flat_latency(2));
  TransferScheduler sched(h.sim, LinkModel(egress_config(1'000'000), kInvalidNode));
  h.sim.set_link_hook(&sched);

  h.sim.send(payload_reply(0, 1, 1'048'576));  // hog -> a
  h.sim.send(payload_reply(0, 2, 1'024));      // mouse -> b
  h.sim.run();

  ASSERT_EQ(h.a->receive_times.size(), 1u);
  ASSERT_EQ(h.b->receive_times.size(), 1u);
  // FIFO service would hold the mouse ~1049 ticks; DRR bounds its wait by
  // one 64KB quantum (~66 ticks) plus its own serialization.
  EXPECT_LT(h.b->receive_times[0], 200);
  // The hog still pays for its full megabyte.
  EXPECT_GT(h.a->receive_times[0], 1'048);
  // Pacing split the hog into quantum-sized bursts.
  EXPECT_GE(sched.stats().bursts, 1'048'576 / TransferScheduler::kPacingBytes);
}

// With no finite rate anywhere the hook declines every send and delivery
// times are bit-identical to a simulator without a link layer.
TEST(TransferScheduler, UnlimitedLinksPassThroughBitIdentical) {
  Harness plain(flat_latency(3));
  plain.sim.send(payload_reply(0, 1, 100'000));
  plain.sim.send(payload_reply(0, 2, 50'000));
  plain.sim.run();

  Harness hooked(flat_latency(3));
  LinkConfig config;
  config.enabled = true;  // enabled but all rates unlimited
  TransferScheduler sched(hooked.sim, LinkModel(config, kInvalidNode));
  hooked.sim.set_link_hook(&sched);
  hooked.sim.send(payload_reply(0, 1, 100'000));
  hooked.sim.send(payload_reply(0, 2, 50'000));
  hooked.sim.run();

  EXPECT_EQ(plain.a->receive_times, hooked.a->receive_times);
  EXPECT_EQ(plain.b->receive_times, hooked.b->receive_times);
  EXPECT_EQ(sched.stats().passthrough, 2u);
  EXPECT_EQ(sched.stats().transfers, 0u);
}

// Control frames (payload_bytes == 0) still occupy the wire for
// control_bytes, so a modeled request arrives later than an unmodeled one.
TEST(TransferScheduler, ControlFramesAreCharged) {
  Harness h(flat_latency(2));
  TransferScheduler sched(h.sim, LinkModel(egress_config(1'000'000), kInvalidNode));
  h.sim.set_link_hook(&sched);

  sim::Message request;
  request.kind = sim::MessageKind::kRequest;
  request.sender = 0;
  request.target = 1;
  h.sim.send(request);
  h.sim.run();

  ASSERT_EQ(h.a->receive_times.size(), 1u);
  // 128 control bytes at 1MB/s round up to one serialization tick.
  EXPECT_EQ(h.a->receive_times[0], 3);
}

// The backlog probe reflects accepted-but-untransmitted bytes: the load
// signal the erasure tier's recovery steering reads.
TEST(TransferScheduler, BacklogProbeTracksQueuedBytes) {
  Harness h(flat_latency(2));
  TransferScheduler sched(h.sim, LinkModel(egress_config(1'000'000), kInvalidNode));
  h.sim.set_link_hook(&sched);

  EXPECT_EQ(sched.backlog_bytes(0), 0u);
  h.sim.send(payload_reply(0, 1, 100'000));
  h.sim.send(payload_reply(0, 2, 50'000));
  EXPECT_EQ(sched.backlog_bytes(0), 150'000u);
  EXPECT_EQ(sched.queue_depth(0), 2u);
  EXPECT_GE(sched.stats().max_backlog_bytes, 150'000u);

  h.sim.run();
  EXPECT_EQ(sched.backlog_bytes(0), 0u);
  EXPECT_EQ(sched.queue_depth(0), 0u);
}

// Identical configs must produce identical delivery schedules: the
// scheduler introduces no iteration-order or wall-clock nondeterminism.
TEST(TransferScheduler, DeterministicAcrossRuns) {
  auto run_once = [] {
    Harness h(flat_latency(2));
    TransferScheduler sched(h.sim, LinkModel(egress_config(500'000), kInvalidNode));
    h.sim.set_link_hook(&sched);
    for (int i = 0; i < 20; ++i) {
      h.sim.send(payload_reply(0, 1 + (i % 2), 10'000 + 1'000 * i));
    }
    h.sim.run();
    std::vector<SimTime> all = h.a->receive_times;
    all.insert(all.end(), h.b->receive_times.begin(), h.b->receive_times.end());
    return all;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace adc::link
