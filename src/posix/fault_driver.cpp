#include "posix/fault_driver.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/units.hpp"

namespace lsl::posix {

namespace {

std::chrono::steady_clock::duration wall(util::SimDuration d) {
  return std::chrono::nanoseconds(d);
}

}  // namespace

LsdFaultDriver::LsdFaultDriver(Lsd& lsd, fault::FaultPlan plan,
                               fault::FaultMetrics* metrics)
    : lsd_(lsd), plan_(std::move(plan)), metrics_(metrics) {}

LsdFaultDriver::LsdFaultDriver(Lsd& lead, EachDaemon each,
                               fault::FaultPlan plan)
    : lsd_(lead), each_(std::move(each)), plan_(std::move(plan)),
      metrics_(nullptr) {}

LsdFaultDriver::~LsdFaultDriver() {
  if (armed_ && !each_) lsd_.on_progress = nullptr;
}

void LsdFaultDriver::each(const std::function<void(Lsd&)>& knob) {
  if (each_) {
    each_(knob);
  } else {
    knob(lsd_);
  }
}

void LsdFaultDriver::arm() {
  if (armed_) return;
  armed_ = true;
  start_ = std::chrono::steady_clock::now();
  bool hook_needed = false;
  for (const fault::FaultEvent& e : plan_.events) {
    switch (e.kind) {
      case fault::FaultKind::kFlap:
        LSL_LOG_WARN("fault-driver: %s targets a link; a daemon cannot "
                     "apply it — skipped", e.describe().c_str());
        continue;
      case fault::FaultKind::kCorrupt:
      case fault::FaultKind::kDisconnect:
        LSL_LOG_WARN("fault-driver: %s is source-side; use the client's "
                     "own knobs — skipped", e.describe().c_str());
        continue;
      default:
        break;  // every other kind maps onto a daemon knob below
    }
    if (e.byte_keyed()) {
      by_bytes_.push_back(e);
      hook_needed = true;
    } else {
      timed_.push_back({start_ + wall(e.at), e, false});
    }
  }
  if (hook_needed && !each_) {
    lsd_.on_progress = [this](std::uint64_t bytes) { on_bytes(bytes); };
  }
}

int LsdFaultDriver::next_timeout_ms() const {
  // The daemon's own wheel (liveness deadlines, park expiries, the drain
  // bound) composes in, so a host bounding run_once() by this value wakes
  // for whichever is due first.
  const int daemon = lsd_.next_timeout_ms();
  if (!armed_ || timed_.empty()) return daemon;
  const auto now = std::chrono::steady_clock::now();
  auto soonest = timed_.front().due;
  for (const Pending& p : timed_) soonest = std::min(soonest, p.due);
  int mine = 0;
  if (soonest > now) {
    mine = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(soonest - now)
            .count() + 1);
  }
  if (daemon < 0) return mine;
  return std::min(mine, daemon);
}

void LsdFaultDriver::poll() {
  if (!armed_) return;
  const auto now = std::chrono::steady_clock::now();
  // Collect-then-apply: applying an event may schedule a repair into
  // timed_, which must not be visited mid-iteration.
  std::vector<Pending> due;
  timed_.erase(std::remove_if(timed_.begin(), timed_.end(),
                              [&](const Pending& p) {
                                if (p.due > now) return false;
                                due.push_back(p);
                                return true;
                              }),
               timed_.end());
  for (const Pending& p : due) {
    if (p.repair) {
      apply_repair(p.event);
    } else {
      apply(p.event);
    }
  }
  lsd_.expire_parked();
}

void LsdFaultDriver::on_bytes(std::uint64_t bytes_relayed) {
  std::vector<fault::FaultEvent> due;
  by_bytes_.erase(std::remove_if(by_bytes_.begin(), by_bytes_.end(),
                                 [&](const fault::FaultEvent& e) {
                                   if (e.at_bytes > bytes_relayed) {
                                     return false;
                                   }
                                   due.push_back(e);
                                   return true;
                                 }),
                  by_bytes_.end());
  for (const fault::FaultEvent& e : due) apply(e);
}

std::uint64_t LsdFaultDriver::next_byte_trigger() const {
  std::uint64_t next = ~std::uint64_t{0};
  for (const fault::FaultEvent& e : by_bytes_) next = std::min(next, e.at_bytes);
  return next;
}

void LsdFaultDriver::note_injected(fault::FaultKind kind) {
  ++injected_;
  if (metrics_) {
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    metrics_->on_injected(t, kind);
  }
}

void LsdFaultDriver::apply(const fault::FaultEvent& e) {
  LSL_LOG_INFO("fault-driver: applying %s", e.describe().c_str());
  switch (e.kind) {
    case fault::FaultKind::kCrash:
      each([](Lsd& d) { d.crash(); });
      note_injected(e.kind);
      if (e.duration > 0) {
        timed_.push_back(
            {std::chrono::steady_clock::now() + wall(e.duration), e, true});
      }
      break;
    case fault::FaultKind::kRestart:
      each([](Lsd& d) { d.restart(); });  // a repair: not counted
      break;
    case fault::FaultKind::kSynDrop:
      each([n = e.count](Lsd& d) { d.set_accept_drops(n); });
      note_injected(e.kind);
      break;
    case fault::FaultKind::kReset:
      each([](Lsd& d) { d.inject_upstream_reset(); });
      note_injected(e.kind);
      break;
    case fault::FaultKind::kSlow:
      each([](Lsd& d) { d.set_stalled(true); });
      note_injected(e.kind);
      timed_.push_back(
          {std::chrono::steady_clock::now() + wall(e.duration), e, true});
      break;
    case fault::FaultKind::kBlackhole:
      // Against a single daemon, a blackholed link means its next hop
      // stops answering: dials launch but never complete, which is
      // exactly what the dial deadline exists to bound.
      each([](Lsd& d) { d.set_dial_blackhole(true); });
      note_injected(e.kind);
      if (e.duration > 0) {
        timed_.push_back(
            {std::chrono::steady_clock::now() + wall(e.duration), e, true});
      }
      break;
    default:
      break;  // filtered at arm()
  }
}

void LsdFaultDriver::apply_repair(const fault::FaultEvent& e) {
  switch (e.kind) {
    case fault::FaultKind::kCrash:
      each([](Lsd& d) { d.restart(); });
      break;
    case fault::FaultKind::kSlow:
      each([](Lsd& d) { d.set_stalled(false); });
      break;
    case fault::FaultKind::kBlackhole:
      each([](Lsd& d) { d.set_dial_blackhole(false); });
      break;
    default:
      break;  // only crash, slow and blackhole schedule repairs
  }
}

}  // namespace lsl::posix
