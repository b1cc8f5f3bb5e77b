#include "posix/fault_driver.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace lsl::posix {

LsdFaultDriver::LsdFaultDriver(Lsd& lead, engine::EpollEngine& engine,
                               EachDaemon each, fault::FaultPlan plan,
                               fault::FaultMetrics* metrics)
    : lead_(lead),
      engine_(engine),
      each_(std::move(each)),
      plan_(std::move(plan)),
      metrics_(metrics) {}

LsdFaultDriver::~LsdFaultDriver() {
  for (const util::EventId id : timers_) engine_.timers().cancel(id);
}

void LsdFaultDriver::arm() {
  start_ns_ = engine::EpollEngine::now_ns();
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
    } else if (e.at <= 0) {
      apply(e);
    } else {
      timers_.push_back(engine_.timers().schedule_at(
          start_ns_ + e.at, [this, e] { apply(e); }));
    }
  }
}

void LsdFaultDriver::schedule_repair(const fault::FaultEvent& e) {
  timers_.push_back(
      engine_.schedule_in(e.duration, [this, e] { apply_repair(e); }));
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
    const double t =
        static_cast<double>(engine::EpollEngine::now_ns() - start_ns_) / 1e9;
    metrics_->on_injected(t, kind);
  }
}

void LsdFaultDriver::apply(const fault::FaultEvent& e) {
  LSL_LOG_INFO("fault-driver: applying %s", e.describe().c_str());
  switch (e.kind) {
    case fault::FaultKind::kCrash:
      each_([](Lsd& d) { d.crash(); });
      note_injected(e.kind);
      if (e.duration > 0) schedule_repair(e);
      break;
    case fault::FaultKind::kRestart:
      each_([](Lsd& d) { d.restart(); });  // a repair: not counted
      break;
    case fault::FaultKind::kSynDrop:
      lead_.set_accept_drops(e.count);  // the depot-wide count
      note_injected(e.kind);
      break;
    case fault::FaultKind::kReset:
      each_([](Lsd& d) { d.inject_upstream_reset(); });
      note_injected(e.kind);
      break;
    case fault::FaultKind::kSlow:
      each_([](Lsd& d) { d.set_stalled(true); });
      note_injected(e.kind);
      schedule_repair(e);
      break;
    case fault::FaultKind::kBlackhole:
      // Against a daemon, a blackholed link means its next hop stops
      // answering: dials launch but never complete, which is exactly what
      // the dial deadline exists to bound.
      each_([](Lsd& d) { d.set_dial_blackhole(true); });
      note_injected(e.kind);
      if (e.duration > 0) schedule_repair(e);
      break;
    default:
      break;  // filtered at arm()
  }
}

void LsdFaultDriver::apply_repair(const fault::FaultEvent& e) {
  switch (e.kind) {
    case fault::FaultKind::kCrash:
      each_([](Lsd& d) { d.restart(); });
      break;
    case fault::FaultKind::kSlow:
      each_([](Lsd& d) { d.set_stalled(false); });
      break;
    case fault::FaultKind::kBlackhole:
      each_([](Lsd& d) { d.set_dial_blackhole(false); });
      break;
    default:
      break;  // only crash, slow and blackhole schedule repairs
  }
}

}  // namespace lsl::posix
