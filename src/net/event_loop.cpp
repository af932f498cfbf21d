#include "net/event_loop.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>

#include "net/socket.h"

namespace adc::net {
namespace {

void set_interest(int epoll_fd, int fd, void* tag, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = tag;
  // ADD for a new fd, MOD for one already in the set (a replaced handler).
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0 && errno == EEXIST) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }
}

}  // namespace

EventLoop::EventLoop()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)), wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  // The wake fd carries a null tag; every watched fd carries its Watch.
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) set_interest(epoll_fd_, wake_fd_, nullptr, false);
}

EventLoop::~EventLoop() {
  close_fd(wake_fd_);
  close_fd(epoll_fd_);
}

void EventLoop::retire(std::unique_ptr<Watch> watch) {
  watch->live = false;
  // Mid-round, the handler may be the one running; it dies at round end.
  if (dispatching_) retired_.push_back(std::move(watch));
}

void EventLoop::watch(int fd, IoHandler handler) {
  if (fd < 0) return;
  if (static_cast<std::size_t>(fd) >= watches_.size()) watches_.resize(fd + 1);
  std::unique_ptr<Watch>& slot = watches_[fd];
  if (slot != nullptr) retire(std::move(slot));
  slot = std::make_unique<Watch>();
  slot->fd = fd;
  slot->handler = std::move(handler);
  set_interest(epoll_fd_, fd, slot.get(), false);
}

void EventLoop::unwatch(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= watches_.size()) return;
  std::unique_ptr<Watch>& slot = watches_[fd];
  if (slot == nullptr) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  retire(std::move(slot));
}

void EventLoop::request_write(int fd, bool enabled) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= watches_.size()) return;
  Watch* watch = watches_[fd].get();
  if (watch == nullptr || watch->want_write == enabled) return;
  watch->want_write = enabled;
  set_interest(epoll_fd_, fd, watch, enabled);
}

int EventLoop::poll_once(int timeout_ms) {
  const int ready =
      ::epoll_wait(epoll_fd_, events_.data(), static_cast<int>(events_.size()), timeout_ms);
  if (ready < 0) return errno == EINTR ? 0 : -1;

  int dispatched = 0;
  dispatching_ = true;
  for (int i = 0; i < ready; ++i) {
    const epoll_event& ev = events_[i];
    Watch* watch = static_cast<Watch*>(ev.data.ptr);
    if (watch == nullptr) {
      std::uint64_t drain = 0;
      [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &drain, sizeof(drain));
      continue;
    }
    // A handler earlier in this round may have unwatched this fd or
    // dropped its write interest; honour the current state, not the
    // readiness fetched before it changed.
    if (!watch->live) continue;
    const bool readable = (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
    const bool writable = (ev.events & EPOLLOUT) != 0 && watch->want_write;
    if (!readable && !writable) continue;
    watch->handler(watch->fd, readable, writable);
    ++dispatched;
  }
  dispatching_ = false;
  retired_.clear();
  return dispatched;
}

void EventLoop::run() {
  while (!stopped()) {
    if (poll_once(-1) < 0) break;
  }
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace adc::net
