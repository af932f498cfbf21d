#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace adc::net {
namespace {

bool parse_u16(std::string_view text, std::uint16_t* out) {
  unsigned value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value > 65535) return false;
  *out = static_cast<std::uint16_t>(value);
  return true;
}

bool fill_addr(const Endpoint& at, sockaddr_in* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(at.port);
  if (inet_pton(AF_INET, at.host.c_str(), &addr->sin_addr) != 1) {
    if (error) *error = "invalid IPv4 address: " + at.host;
    return false;
  }
  return true;
}

int fail_close(int fd, std::string* error, const char* what) {
  if (error) *error = std::string(what) + ": " + std::strerror(errno);
  if (fd >= 0) ::close(fd);
  return -1;
}

// Small writes dominate the protocol; Nagle would serialize the closed
// loop on RTT-scale delays, so it is off on every connection.
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

bool parse_peer_spec(std::string_view spec, NodeId* id, Endpoint* endpoint, std::string* error) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string_view::npos) {
    if (error) *error = "peer spec missing '=' (want id=host:port): " + std::string(spec);
    return false;
  }
  const std::string_view id_part = spec.substr(0, eq);
  std::int32_t parsed_id = 0;
  const auto [ptr, ec] =
      std::from_chars(id_part.data(), id_part.data() + id_part.size(), parsed_id);
  if (ec != std::errc{} || ptr != id_part.data() + id_part.size() || parsed_id < 0) {
    if (error) *error = "peer spec has a bad node id: " + std::string(spec);
    return false;
  }
  const std::string_view addr = spec.substr(eq + 1);
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    if (error) *error = "peer spec missing host:port: " + std::string(spec);
    return false;
  }
  std::uint16_t port = 0;
  if (!parse_u16(addr.substr(colon + 1), &port) || port == 0) {
    if (error) *error = "peer spec has a bad port: " + std::string(spec);
    return false;
  }
  *id = parsed_id;
  endpoint->host = std::string(addr.substr(0, colon));
  endpoint->port = port;
  return true;
}

int listen_tcp(const Endpoint& at, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail_close(-1, error, "socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!fill_addr(at, &addr, error)) return fail_close(fd, nullptr, "");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail_close(fd, error, "bind");
  }
  if (::listen(fd, 64) != 0) return fail_close(fd, error, "listen");
  if (!set_nonblocking(fd)) return fail_close(fd, error, "set_nonblocking");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

int accept_tcp(int listener) {
  const int fd = ::accept(listener, nullptr, nullptr);
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

int connect_tcp(const Endpoint& to, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail_close(-1, error, "socket");
  sockaddr_in addr{};
  if (!fill_addr(to, &addr, error)) return fail_close(fd, nullptr, "");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail_close(fd, error, "connect");
  }
  if (!set_nonblocking(fd)) return fail_close(fd, error, "set_nonblocking");
  set_nodelay(fd);
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

Conn::~Conn() { close_fd(fd_); }

Conn::Io Conn::read_some() {
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.insert(in_.end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return Io::kOk;
      continue;
    }
    if (n == 0) return Io::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Io::kOk;
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return Io::kReset;
    return Io::kError;
  }
}

DecodeResult Conn::next_frame(Frame* out, std::string* error) {
  std::size_t consumed = 0;
  const DecodeResult result =
      decode_frame(in_.data() + in_cursor_, in_.size() - in_cursor_, &consumed, out, error);
  if (result == DecodeResult::kFrame) {
    in_cursor_ += consumed;
    // The usual case: every byte read so far was whole frames.
    if (in_cursor_ == in_.size()) {
      in_.clear();
      in_cursor_ = 0;
    } else if (in_cursor_ > 64 * 1024 && in_cursor_ * 2 > in_.size()) {
      // Reclaim the consumed prefix once it dominates the buffer.
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_cursor_));
      in_cursor_ = 0;
    }
  }
  return result;
}

void Conn::queue(const std::uint8_t* data, std::size_t size) {
  out_.insert(out_.end(), data, data + size);
}

std::size_t Conn::queue_message(const WireMessage& wire) {
  const std::size_t before = out_.size();
  encode_message(wire, &out_);
  return out_.size() - before;
}

Conn::Io Conn::flush() {
  while (out_cursor_ < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + out_cursor_, out_.size() - out_cursor_, MSG_NOSIGNAL);
    if (n > 0) {
      out_cursor_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return Io::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Io::kOk;
    if (errno == EINTR) continue;
    if (errno == EPIPE || errno == ECONNRESET) return Io::kReset;
    return Io::kError;
  }
  out_.clear();
  out_cursor_ = 0;
  return Io::kOk;
}

}  // namespace adc::net
