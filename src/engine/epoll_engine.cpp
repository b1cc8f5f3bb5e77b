#include "engine/epoll_engine.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <system_error>

namespace lsl::engine {

EpollEngine::EpollEngine() : epoll_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epoll_.valid()) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  // The wakeup channel is an ordinary registered fd: a counting eventfd
  // whose callback drains the count and runs the installed closure. It is
  // excluded from watched_count() so run()'s "no fds left" exit condition
  // keeps its pre-wakeup meaning.
  wakeup_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wakeup_fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  add(wakeup_fd_.get(), EPOLLIN, [this](std::uint32_t) { drain_wakeup(); });
}

void EpollEngine::add(int fd, std::uint32_t events, IoCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl ADD");
  }
  callbacks_[fd] = std::move(cb);
}

void EpollEngine::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl MOD");
  }
}

void EpollEngine::remove(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

int EpollEngine::run_once(int timeout_ms) {
  std::array<epoll_event, 64> events;
  const int n = ::epoll_wait(epoll_.get(), events.data(),
                             static_cast<int>(events.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return -1;
    throw std::system_error(errno, std::generic_category(), "epoll_wait");
  }
  std::chrono::steady_clock::time_point dispatch_start;
  if (metrics_) {
    metrics_->iterations->inc();
    metrics_->events_dispatched->inc(static_cast<std::uint64_t>(n));
    dispatch_start = std::chrono::steady_clock::now();
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    const auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) continue;  // removed by an earlier callback
    // Copy: the callback may remove (and thus invalidate) its own entry.
    IoCallback cb = it->second;
    cb(events[static_cast<std::size_t>(i)].events);
  }
  if (metrics_ && n > 0) {
    metrics_->dispatch_ms->observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - dispatch_start)
            .count());
  }
  return n;
}

void EpollEngine::run() {
  stopped_ = false;
  while (!stopped_ && watched_count() > 0) {
    run_once(-1);
  }
}

void EpollEngine::wakeup() {
  // write(2) on an eventfd is atomic and thread-safe; the counter adds up
  // and the dispatch thread drains it in one read, so wakeups coalesce.
  const std::uint64_t one = 1;
  const auto n = ::write(wakeup_fd_.get(), &one, sizeof(one));
  (void)n;  // EAGAIN means the counter is saturated — a wakeup is pending
}

void EpollEngine::drain_wakeup() {
  std::uint64_t count = 0;
  const auto n = ::read(wakeup_fd_.get(), &count, sizeof(count));
  (void)n;  // EFD_NONBLOCK: EAGAIN just means a spurious wake
  if (on_wakeup_) on_wakeup_();
}

}  // namespace lsl::engine
