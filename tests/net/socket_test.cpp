#include "net/socket.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "net/event_loop.h"

namespace adc::net {
namespace {

TEST(PeerSpec, ParsesWellFormedSpec) {
  NodeId id = kInvalidNode;
  Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(parse_peer_spec("3=127.0.0.1:7003", &id, &endpoint, &error)) << error;
  EXPECT_EQ(id, 3);
  EXPECT_EQ(endpoint.host, "127.0.0.1");
  EXPECT_EQ(endpoint.port, 7003);
}

TEST(PeerSpec, RejectsMalformedSpecs) {
  NodeId id = kInvalidNode;
  Endpoint endpoint;
  std::string error;
  EXPECT_FALSE(parse_peer_spec("127.0.0.1:7003", &id, &endpoint, &error));  // no id
  EXPECT_NE(error.find("'='"), std::string::npos);
  EXPECT_FALSE(parse_peer_spec("x=127.0.0.1:7003", &id, &endpoint, &error));  // bad id
  EXPECT_FALSE(parse_peer_spec("-2=127.0.0.1:7003", &id, &endpoint, &error));  // negative id
  EXPECT_FALSE(parse_peer_spec("3=127.0.0.1", &id, &endpoint, &error));  // no port
  EXPECT_FALSE(parse_peer_spec("3=127.0.0.1:0", &id, &endpoint, &error));  // port 0
  EXPECT_FALSE(parse_peer_spec("3=127.0.0.1:99999", &id, &endpoint, &error));  // port range
  EXPECT_FALSE(parse_peer_spec("3=127.0.0.1:70x3", &id, &endpoint, &error));  // junk port
  EXPECT_FALSE(parse_peer_spec("3=:7003", &id, &endpoint, &error));  // empty host
}

TEST(Socket, EphemeralListenReportsRealPort) {
  std::string error;
  const int listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &error);
  ASSERT_GE(listener, 0) << error;
  EXPECT_GT(local_port(listener), 0);
  close_fd(listener);
}

TEST(Socket, FramesSurviveLoopbackConnection) {
  std::string error;
  const int listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &error);
  ASSERT_GE(listener, 0) << error;
  const Endpoint at{"127.0.0.1", local_port(listener)};

  const int client_fd = connect_tcp(at, &error);
  ASSERT_GE(client_fd, 0) << error;
  Conn client(client_fd);

  int accepted = -1;
  for (int i = 0; i < 100 && accepted < 0; ++i) accepted = accept_tcp(listener);
  ASSERT_GE(accepted, 0);
  Conn server(accepted);

  WireMessage wire;
  wire.msg.kind = sim::MessageKind::kRequest;
  wire.msg.request_id = make_request_id(6, 1);
  wire.msg.object = 77;
  wire.path = {6};
  std::vector<std::uint8_t> bytes;
  encode_message(wire, &bytes);
  encode_hello(Hello{6, sim::NodeKind::kClient}, &bytes);
  client.queue(bytes);
  ASSERT_EQ(client.flush(), Conn::Io::kOk);
  ASSERT_FALSE(client.wants_write());

  // Loopback delivery is fast but not instantaneous under O_NONBLOCK.
  Frame frame;
  DecodeResult result = DecodeResult::kNeedMore;
  for (int i = 0; i < 1000 && result == DecodeResult::kNeedMore; ++i) {
    ASSERT_NE(server.read_some(), Conn::Io::kError);
    result = server.next_frame(&frame, &error);
  }
  ASSERT_EQ(result, DecodeResult::kFrame) << error;
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.message.msg.object, 77u);
  ASSERT_EQ(frame.message.path.size(), 1u);

  result = server.next_frame(&frame, &error);
  for (int i = 0; i < 1000 && result == DecodeResult::kNeedMore; ++i) {
    ASSERT_NE(server.read_some(), Conn::Io::kError);
    result = server.next_frame(&frame, &error);
  }
  ASSERT_EQ(result, DecodeResult::kFrame) << error;
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.hello.node_id, 6);

  close_fd(listener);
}

TEST(EventLoop, DispatchesReadableFds) {
  std::string error;
  const int listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &error);
  ASSERT_GE(listener, 0) << error;

  EventLoop loop;
  int accepted_events = 0;
  loop.watch(listener, [&](int fd, bool readable, bool) {
    if (!readable) return;
    const int fd2 = accept_tcp(fd);
    if (fd2 >= 0) {
      ++accepted_events;
      close_fd(fd2);
    }
  });

  const int client = connect_tcp(Endpoint{"127.0.0.1", local_port(listener)}, &error);
  ASSERT_GE(client, 0) << error;

  for (int i = 0; i < 100 && accepted_events == 0; ++i) loop.poll_once(50);
  EXPECT_EQ(accepted_events, 1);

  close_fd(client);
  close_fd(listener);
}

TEST(EventLoop, StopWakesABlockedPoll) {
  EventLoop loop;
  loop.stop();
  // A stopped loop's poll returns immediately even with an infinite
  // timeout, because the self-pipe byte is already readable.
  EXPECT_GE(loop.poll_once(-1), 0);
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoop, UnwatchInsideHandlerIsSafe) {
  std::string error;
  const int listener = listen_tcp(Endpoint{"127.0.0.1", 0}, &error);
  ASSERT_GE(listener, 0) << error;
  EventLoop loop;
  int calls = 0;
  loop.watch(listener, [&](int fd, bool, bool) {
    ++calls;
    loop.unwatch(fd);
  });
  const int client = connect_tcp(Endpoint{"127.0.0.1", local_port(listener)}, &error);
  ASSERT_GE(client, 0) << error;
  for (int i = 0; i < 100 && calls == 0; ++i) loop.poll_once(50);
  EXPECT_EQ(calls, 1);
  // Further polls never dispatch the unwatched fd again.
  for (int i = 0; i < 3; ++i) loop.poll_once(10);
  EXPECT_EQ(calls, 1);
  close_fd(client);
  close_fd(listener);
}

/// A connected non-blocking AF_UNIX stream pair, closed on destruction.
struct SocketPair {
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
  }
  ~SocketPair() {
    close_fd(fds[0]);
    close_fd(fds[1]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  /// Makes fds[0] readable.
  void poke() const {
    const char byte = 'x';
    EXPECT_EQ(::write(fds[1], &byte, 1), 1);
  }

  int fds[2] = {-1, -1};
};

TEST(EventLoop, WritableIsDispatchedOnlyWhileRequested) {
  SocketPair pair;
  EventLoop loop;
  int writable_calls = 0;
  int calls = 0;
  loop.watch(pair.fds[0], [&](int, bool, bool writable) {
    ++calls;
    if (writable) ++writable_calls;
  });

  // An idle, writable socket with no write interest is never dispatched.
  EXPECT_EQ(loop.poll_once(10), 0);
  EXPECT_EQ(calls, 0);

  loop.request_write(pair.fds[0], true);
  EXPECT_EQ(loop.poll_once(10), 1);
  EXPECT_EQ(writable_calls, 1);
  // Level-triggered: still writable, still requested, dispatched again.
  EXPECT_EQ(loop.poll_once(10), 1);
  EXPECT_EQ(writable_calls, 2);

  loop.request_write(pair.fds[0], false);
  EXPECT_EQ(loop.poll_once(10), 0);
  EXPECT_EQ(calls, 2);
}

TEST(EventLoop, WatchingAWatchedFdReplacesItsHandler) {
  SocketPair pair;
  EventLoop loop;
  int first = 0;
  int second = 0;
  loop.watch(pair.fds[0], [&](int, bool, bool) { ++first; });
  loop.watch(pair.fds[0], [&](int, bool, bool) { ++second; });
  pair.poke();
  EXPECT_EQ(loop.poll_once(1000), 1);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(EventLoop, HandlerUnwatchingAnotherReadyFdStopsItsDispatch) {
  SocketPair a;
  SocketPair b;
  a.poke();
  b.poke();
  EventLoop loop;
  int a_calls = 0;
  int b_calls = 0;
  // Whichever fd epoll reports first unwatches the other, which is also
  // ready in this round and must not be dispatched.
  loop.watch(a.fds[0], [&](int, bool, bool) {
    ++a_calls;
    loop.unwatch(b.fds[0]);
  });
  loop.watch(b.fds[0], [&](int, bool, bool) {
    ++b_calls;
    loop.unwatch(a.fds[0]);
  });
  EXPECT_EQ(loop.poll_once(1000), 1);
  EXPECT_EQ(a_calls + b_calls, 1);
  // Both stay readable: the survivor is dispatched again, the other never.
  EXPECT_EQ(loop.poll_once(10), 1);
  EXPECT_TRUE((a_calls == 2 && b_calls == 0) || (a_calls == 0 && b_calls == 2))
      << "a=" << a_calls << " b=" << b_calls;
}

TEST(EventLoop, StopFromAnotherThreadWakesABlockedPoll) {
  EventLoop loop;
  std::thread stopper([&loop]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.stop();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_GE(loop.poll_once(-1), 0);
  stopper.join();
  EXPECT_TRUE(loop.stopped());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

}  // namespace
}  // namespace adc::net
