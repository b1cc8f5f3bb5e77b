#include "live/liveness.hpp"

#include <sstream>

#include "util/contract.hpp"

namespace lsl::live {

const char* to_string(DeadlineKind kind) {
  switch (kind) {
    case DeadlineKind::kHeader:
      return "header";
    case DeadlineKind::kDial:
      return "dial";
    case DeadlineKind::kIdle:
      return "idle";
    case DeadlineKind::kStall:
      return "stall";
    case DeadlineKind::kDrain:
      return "drain";
  }
  LSL_UNREACHABLE("bad DeadlineKind");
}

LivenessConfig LivenessConfig::recommended() {
  LivenessConfig c;
  c.header_timeout = 5 * util::kSecond;
  c.dial_timeout = 10 * util::kSecond;
  c.idle_timeout = 60 * util::kSecond;
  c.stall_window = 10 * util::kSecond;
  c.min_bytes_per_window = 1;
  c.drain_deadline = 30 * util::kSecond;
  return c;
}

void RelayLiveness::attach(util::EventQueue* timers,
                           const LivenessConfig* config,
                           std::function<void(DeadlineKind)> on_expire) {
  cancel_all();
  timers_ = timers;
  config_ = config;
  on_expire_ = std::move(on_expire);
}

void RelayLiveness::on_accepted(std::int64_t now) {
  last_activity_ = now;
  if (!attached() || config_->header_timeout <= 0) return;
  header_token_ = timers_->schedule_at(now + config_->header_timeout, [this] {
    header_token_ = util::kInvalidEvent;
    expire(DeadlineKind::kHeader);
  });
}

void RelayLiveness::on_header_done(std::int64_t now) {
  last_activity_ = now;
  if (!attached()) return;
  timers_->cancel(header_token_);
  header_token_ = util::kInvalidEvent;
  if (config_->dial_timeout <= 0) return;
  dial_token_ = timers_->schedule_at(now + config_->dial_timeout, [this] {
    dial_token_ = util::kInvalidEvent;
    expire(DeadlineKind::kDial);
  });
}

void RelayLiveness::on_connected(std::int64_t now) {
  last_activity_ = now;
  if (!attached()) return;
  timers_->cancel(dial_token_);
  dial_token_ = util::kInvalidEvent;
  streaming_ = true;
  // The stream phase is watched by exactly one of idle/stall at a time,
  // selected by whether bytes are waiting for downstream.
  if (should_progress_) {
    arm_stall_at(now + config_->stall_window);
  } else {
    arm_idle_at(now + config_->idle_timeout);
  }
}

void RelayLiveness::set_should_progress(bool should, std::int64_t now) {
  if (should == should_progress_) return;
  should_progress_ = should;
  if (!attached() || !streaming_) return;
  timers_->cancel(watch_token_);
  watch_token_ = util::kInvalidEvent;
  if (should) {
    arm_stall_at(now + config_->stall_window);
  } else {
    arm_idle_at(now + config_->idle_timeout);
  }
}

void RelayLiveness::arm_idle_at(std::int64_t due) {
  if (config_->idle_timeout <= 0) return;
  watch_due_ = due;
  watch_token_ = timers_->schedule_at(due, [this] {
    watch_token_ = util::kInvalidEvent;
    on_idle_fired();
  });
}

void RelayLiveness::on_idle_fired() {
  // Lazy re-arm: activity since the arm only stamped last_activity_. If it
  // pushed the horizon past the instant we were armed for, sleep again
  // until the new horizon instead of expiring — O(1) per byte batch, one
  // timer per relay.
  const std::int64_t horizon = last_activity_ + config_->idle_timeout;
  if (horizon > watch_due_) {
    arm_idle_at(horizon);
  } else {
    expire(DeadlineKind::kIdle);
  }
}

void RelayLiveness::arm_stall_at(std::int64_t window_end) {
  if (config_->stall_window <= 0) return;
  window_bytes_ = 0;
  watch_due_ = window_end;
  watch_token_ = timers_->schedule_at(window_end, [this] {
    watch_token_ = util::kInvalidEvent;
    on_stall_fired();
  });
}

void RelayLiveness::on_stall_fired() {
  if (window_bytes_ >= config_->min_bytes_per_window) {
    if (rate_hook_) {
      rate_hook_(static_cast<double>(window_bytes_) * 1e9 /
                 static_cast<double>(config_->stall_window));
    }
    arm_stall_at(watch_due_ + config_->stall_window);  // moving: next window
  } else {
    expire(DeadlineKind::kStall);
  }
}

void RelayLiveness::cancel_all() {
  if (timers_ != nullptr) {
    timers_->cancel(header_token_);
    timers_->cancel(dial_token_);
    timers_->cancel(watch_token_);
  }
  header_token_ = dial_token_ = watch_token_ = util::kInvalidEvent;
  streaming_ = false;
}

void RelayLiveness::expire(DeadlineKind kind) {
  if (on_expire_) on_expire_(kind);
}

std::string DrainReport::summary() const {
  std::ostringstream os;
  os << "drain " << (expired ? "expired" : "complete") << ": "
     << in_flight_at_start << " in flight, " << completed << " completed, "
     << parked << " parked, " << aborted << " aborted, " << refused
     << " refused";
  return os.str();
}

}  // namespace lsl::live
