#include "engine/epoll_engine.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <limits>
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

std::int64_t EpollEngine::now_ns() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int EpollEngine::run_once(int timeout_ms) {
  if (!timers_.empty()) {
    // Rounded up to whole milliseconds, so the wait never ends before the
    // earliest timer is due.
    const std::int64_t until =
        std::max<std::int64_t>(timers_.next_due() - now_ns(), 0);
    const auto until_ms = static_cast<int>(
        std::min<std::int64_t>((until + 999'999) / 1'000'000,
                               std::numeric_limits<int>::max()));
    if (timeout_ms < 0 || until_ms < timeout_ms) timeout_ms = until_ms;
  }
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
  const std::uint64_t before = timers_.executed_count();
  timers_.run_until(now_ns());
  return n + static_cast<int>(timers_.executed_count() - before);
}

void EpollEngine::run() {
  stopped_ = false;
  while (!stopped_ && (watched_count() > 0 || !timers_.empty())) {
    run_once(-1);
  }
}

void EpollEngine::wakeup() {
  // write(2) on an eventfd is atomic and thread-safe; the counter adds up
  // and the dispatch thread drains it in one read, so wakeups coalesce.
  // EFD_NONBLOCK: the write never blocks; EAGAIN means the counter is
  // saturated and a wakeup is already pending.
  const std::uint64_t one = 1;
  const int fd = wakeup_fd_.get();
  const auto n = ::write(fd, &one, sizeof one);  // lsl-lint: allow(blocking-io)
  (void)n;
}

void EpollEngine::drain_wakeup() {
  // EFD_NONBLOCK: the read never blocks; EAGAIN just means a spurious wake.
  std::uint64_t got = 0;  // the coalesced wakeup count
  const int fd = wakeup_fd_.get();
  const auto n = ::read(fd, &got, sizeof got);  // lsl-lint: allow(blocking-io)
  (void)n;
  if (on_wakeup_) on_wakeup_();
}

}  // namespace lsl::engine
