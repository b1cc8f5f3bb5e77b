#include "engine/timer.hpp"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

namespace lsl::engine {

EngineTimer::EngineTimer(EpollEngine& engine, std::function<void()> on_fire)
    : engine_(engine), on_fire_(std::move(on_fire)) {
  fd_.reset(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (!fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "timerfd_create");
  }
  engine_.add(fd_.get(), EPOLLIN, [this](std::uint32_t) { on_readable(); });
}

EngineTimer::~EngineTimer() {
  if (fd_.valid()) engine_.remove(fd_.get());
}

std::int64_t EngineTimer::now_ns() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void EngineTimer::arm(std::int64_t due_ns) {
  if (armed_ && armed_due_ == due_ns) return;
  // it_value {0,0} would disarm; clamp a past/zero instant to 1 ns so the
  // timer still fires (immediately) instead of going silent.
  if (due_ns < 1) due_ns = 1;
  struct itimerspec spec = {};
  spec.it_value.tv_sec = due_ns / 1'000'000'000;
  spec.it_value.tv_nsec = due_ns % 1'000'000'000;
  ::timerfd_settime(fd_.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
  armed_ = true;
  armed_due_ = due_ns;
}

void EngineTimer::disarm() {
  if (!armed_) return;
  struct itimerspec spec = {};  // zero it_value = disarm
  ::timerfd_settime(fd_.get(), 0, &spec, nullptr);
  armed_ = false;
  armed_due_ = 0;
}

void EngineTimer::on_readable() {
  std::uint64_t expirations = 0;
  // Drain the expiration count so level-triggered epoll quiesces.
  const auto n = ::read(fd_.get(), &expirations, sizeof(expirations));
  (void)n;  // TFD_NONBLOCK: EAGAIN just means a spurious wake
  armed_ = false;
  armed_due_ = 0;
  if (on_fire_) on_fire_();
}

}  // namespace lsl::engine
