// epoll-based single-threaded event loop.
//
// The daemon and the load generator are reactors: every fd (listener,
// peer connection, client connection) registers a handler, and run()
// dispatches readiness until stop() is called.  Watched fds stay in one
// level-triggered epoll set, so a round costs O(ready fds) rather than
// O(watched fds) and allocates nothing.  stop() is the only thread-safe
// entry point — it signals an eventfd the loop watches, so a signal
// handler thread or the test harness can end a loop blocked in
// epoll_wait() without races.
#pragma once

#include <sys/epoll.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace adc::net {

class EventLoop {
 public:
  /// Called with the fd's readiness; EPOLLERR/EPOLLHUP are reported as
  /// readable so handlers observe the failure via read_some().
  using IoHandler = std::function<void(int fd, bool readable, bool writable)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for read-readiness.  Replaces any prior handler (and
  /// drops its write interest).
  void watch(int fd, IoHandler handler);

  /// Deregisters `fd`.  Safe to call from inside a handler (including the
  /// handler of `fd` itself): the fd is not dispatched again this round,
  /// and its handler is destroyed when the round ends.
  void unwatch(int fd);

  /// Enables or disables write interest for a watched fd.  Touches the
  /// epoll set only when the interest changes.
  void request_write(int fd, bool enabled);

  /// One epoll round.  Returns the number of handlers dispatched, or -1 on
  /// epoll_wait() failure.  `timeout_ms` < 0 blocks indefinitely.
  int poll_once(int timeout_ms);

  /// Dispatches until stop().
  void run();

  /// Thread-safe: wakes a blocked epoll_wait() and makes run() return.
  void stop();

  bool stopped() const noexcept { return stop_.load(std::memory_order_acquire); }

 private:
  /// Owned by `watches_[fd]`; epoll events carry its address.  An unwatched
  /// or replaced Watch is marked dead and parked in `retired_` until the
  /// round ends, so events already fetched for it are skipped, never
  /// dispatched through a dangling pointer.
  struct Watch {
    int fd = -1;
    IoHandler handler;
    bool want_write = false;
    bool live = true;
  };

  void retire(std::unique_ptr<Watch> watch);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<std::unique_ptr<Watch>> watches_;  // indexed by fd
  std::vector<std::unique_ptr<Watch>> retired_;
  bool dispatching_ = false;
  std::array<epoll_event, 64> events_{};
  std::atomic<bool> stop_{false};
};

}  // namespace adc::net
