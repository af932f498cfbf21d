// The daemon queues every frame a loop round produces and writes each
// connection once at the end of the round.  These loopback checks pin what
// that must not change: frames reach the peer whole and in send order,
// DaemonStats counts frames (not writes), and nothing waits for the next
// idle poll timeout (500 ms without membership) to leave.
#include "server/daemon.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "server/loadgen.h"

namespace adc::server {
namespace {

constexpr NodeId kOriginId = 5;
constexpr NodeId kClientId = 6;

/// One origin daemon on an ephemeral loopback port, served on its own
/// thread until the harness is destroyed.
class OriginHarness {
 public:
  explicit OriginHarness(fault::FaultPlan chaos = {}) {
    DaemonConfig config;
    config.node_id = kOriginId;
    config.role = DaemonRole::kOrigin;
    config.origin_id = kOriginId;
    config.listen = net::Endpoint{"127.0.0.1", 0};
    config.fault_plan = chaos;
    daemon_ = std::make_unique<NodeDaemon>(config);
    std::string error;
    port_ = daemon_->bind(&error);
    EXPECT_NE(port_, 0) << error;
    thread_ = std::thread([this]() { daemon_->run(); });
  }

  ~OriginHarness() { stop(); }
  OriginHarness(const OriginHarness&) = delete;
  OriginHarness& operator=(const OriginHarness&) = delete;

  /// Stops the daemon and joins its thread; stats are race-free after.
  void stop() {
    daemon_->stop();
    if (thread_.joinable()) thread_.join();
  }

  net::Endpoint endpoint() const { return net::Endpoint{"127.0.0.1", port_}; }
  const NodeDaemon& daemon() const { return *daemon_; }

 private:
  std::unique_ptr<NodeDaemon> daemon_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

net::WireMessage client_request(RequestId id, ObjectId object) {
  net::WireMessage wire;
  wire.msg.kind = sim::MessageKind::kRequest;
  wire.msg.request_id = id;
  wire.msg.object = object;
  wire.msg.sender = kClientId;
  wire.msg.target = kOriginId;
  wire.msg.client = kClientId;
  wire.msg.hops = 1;
  wire.path = {kClientId};
  return wire;
}

/// Connects as the client, sends HELLO plus `requests` in one write, and
/// collects reply frames until `want` arrived or two seconds passed.
std::vector<net::WireMessage> exchange(const net::Endpoint& origin,
                                       const std::vector<net::WireMessage>& requests,
                                       std::size_t want) {
  std::string error;
  const int fd = net::connect_tcp(origin, &error);
  EXPECT_GE(fd, 0) << error;
  if (fd < 0) return {};
  net::Conn conn(fd);
  std::vector<std::uint8_t> hello;
  net::encode_hello(net::Hello{kClientId, sim::NodeKind::kClient}, &hello);
  conn.queue(hello);
  for (const net::WireMessage& request : requests) conn.queue_message(request);
  EXPECT_EQ(conn.flush(), net::Conn::Io::kOk);

  std::vector<net::WireMessage> replies;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  net::Frame frame;
  while (replies.size() < want && std::chrono::steady_clock::now() < deadline) {
    if (conn.read_some() != net::Conn::Io::kOk) break;
    while (conn.next_frame(&frame, &error) == net::DecodeResult::kFrame) {
      if (frame.type != net::FrameType::kHello) replies.push_back(frame.message);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return replies;
}

TEST(DaemonFlush, RepliesQueuedInOneRoundArriveWholeAndInSendOrder) {
  OriginHarness origin;
  // Both requests leave in one write, so the origin normally reads them in
  // one round and queues both replies before writing either.
  const std::vector<net::WireMessage> replies =
      exchange(origin.endpoint(), {client_request(101, 7), client_request(102, 8)}, 2);
  origin.stop();

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].msg.kind, sim::MessageKind::kReply);
  EXPECT_EQ(replies[0].msg.request_id, 101u);
  EXPECT_EQ(replies[0].msg.object, 7u);
  EXPECT_EQ(replies[1].msg.kind, sim::MessageKind::kReply);
  EXPECT_EQ(replies[1].msg.request_id, 102u);
  EXPECT_EQ(replies[1].msg.object, 8u);
  // The journey path comes back extended by the origin.
  EXPECT_EQ(replies[1].path, (std::vector<NodeId>{kClientId, kOriginId}));
  EXPECT_EQ(origin.daemon().stats().deliveries, 2u);
  EXPECT_EQ(origin.daemon().stats().frames_out, 2u);
}

TEST(DaemonFlush, OneDeliverySendingTwoFramesToOnePeerCountsTwoFrames) {
  // A duplicate on every send: the one delivery below sends its reply
  // twice to the same client connection.
  fault::FaultPlan chaos;
  chaos.dup_prob = 1.0;
  OriginHarness origin(chaos);
  const std::vector<net::WireMessage> replies =
      exchange(origin.endpoint(), {client_request(201, 9)}, 2);
  origin.stop();

  ASSERT_EQ(replies.size(), 2u);
  for (const net::WireMessage& reply : replies) {
    EXPECT_EQ(reply.msg.kind, sim::MessageKind::kReply);
    EXPECT_EQ(reply.msg.request_id, 201u);
    EXPECT_EQ(reply.msg.object, 9u);
  }
  EXPECT_EQ(origin.daemon().stats().deliveries, 1u);
  EXPECT_EQ(origin.daemon().stats().frames_out, 2u);
}

TEST(DaemonFlush, LoadGeneratorNeverWaitsForAnIdlePoll) {
  OriginHarness origin;
  LoadGenConfig config;
  config.client_id = kClientId;
  config.proxies = {{kOriginId, origin.endpoint()}};
  config.concurrency = 4;
  config.idle_timeout_ms = 5000;
  LoadGenerator loadgen(config);
  std::string error;
  ASSERT_TRUE(loadgen.connect(&error)) << error;

  std::vector<ObjectId> objects(2000);
  for (std::size_t i = 0; i < objects.size(); ++i) objects[i] = i % 97;
  const LoadGenReport report = loadgen.run(objects);
  origin.stop();

  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(report.completed, 2000u);
  EXPECT_EQ(report.failed, 0u);
  // A frame left queued until the next idle poll would cost 500 ms.
  EXPECT_LT(report.latency_p99_us, 100000.0);
  EXPECT_EQ(origin.daemon().stats().frames_out, 2000u);
}

}  // namespace
}  // namespace adc::server
