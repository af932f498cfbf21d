// Thin portable layer over POSIX TCP sockets.
//
// Everything the cluster runtime needs and nothing more: non-blocking
// listeners/connections, an `id=host:port` peer-spec parser shared by the
// daemon and the load generator, and `Conn`, a buffered framed connection
// that turns a non-blocking byte stream into wire-protocol frames.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/types.h"

namespace adc::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parses "id=host:port" (e.g. "3=127.0.0.1:7003") as given to a
/// repeatable --peer flag.  Returns false with a diagnostic in `error` on
/// malformed specs; ids must be non-negative, ports 1..65535.
bool parse_peer_spec(std::string_view spec, NodeId* id, Endpoint* endpoint, std::string* error);

/// Creates a non-blocking listening socket bound to `at` (port 0 picks an
/// ephemeral port; read it back with local_port).  Returns -1 with a
/// diagnostic in `error` on failure.
int listen_tcp(const Endpoint& at, std::string* error);

/// Port a bound socket actually listens on (0 on error).
std::uint16_t local_port(int fd);

/// Accepts one pending connection as a non-blocking fd, or -1 when none
/// is pending (or on error).
int accept_tcp(int listener);

/// Connects to `to` (blocking connect, then the fd is switched to
/// non-blocking).  Returns -1 with a diagnostic in `error` on failure.
int connect_tcp(const Endpoint& to, std::string* error);

bool set_nonblocking(int fd);
void close_fd(int fd);

/// A buffered connection over a non-blocking fd.  Reads accumulate in an
/// input buffer that next_frame() decodes incrementally (and empties once
/// every byte is consumed); writes queue in an output buffer drained by
/// flush() as the socket accepts bytes.
class Conn {
 public:
  /// Takes ownership of `fd` (closed by the destructor).
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const noexcept { return fd_; }

  enum class Io {
    kOk,      // progressed (possibly zero bytes on EAGAIN)
    kClosed,  // orderly shutdown by the peer
    kReset,   // peer closed hard (ECONNRESET/EPIPE); the connection is dead
    kError,   // socket error; the connection is dead
  };

  /// Drains whatever the socket has into the input buffer.
  Io read_some();

  /// Decodes the next complete frame from the input buffer.  kNeedMore
  /// means "call read_some and retry"; kCorrupt means the stream is
  /// unusable and the connection should be dropped.
  DecodeResult next_frame(Frame* out, std::string* error = nullptr);

  /// Queues bytes (a pre-encoded frame) for writing.
  void queue(const std::uint8_t* data, std::size_t size);
  void queue(const std::vector<std::uint8_t>& bytes) { queue(bytes.data(), bytes.size()); }

  /// Encodes `wire` straight into the output buffer, behind any bytes not
  /// yet flushed.  Returns the frame's size on the wire.
  std::size_t queue_message(const WireMessage& wire);

  /// Writes as much queued output as the socket accepts.
  Io flush();

  /// True while queued output remains; drives POLLOUT interest.
  bool wants_write() const noexcept { return out_cursor_ < out_.size(); }

 private:
  int fd_;
  std::vector<std::uint8_t> in_;
  std::size_t in_cursor_ = 0;
  std::vector<std::uint8_t> out_;
  std::size_t out_cursor_ = 0;
};

}  // namespace adc::net
