// Relay liveness policy: per-relay lifecycle deadlines and the
// min-progress-rate watchdog, expressed over the host's util::EventQueue so
// the exact same policy runs in the simulator (SimTime) and the posix daemon
// (steady-clock ns).
//
// A relay's life has four liveness phases, each guarded by one deadline
// class (docs/PROTOCOL.md tabulates the defaults; docs/FAULTS.md shows how
// chaos tests trip each class):
//
//   header — accepted but the LSL header has not finished arriving;
//   dial   — header parsed, the non-blocking next-hop connect() is pending;
//   idle   — streaming, nothing buffered for downstream, and no socket
//            activity in either direction (a dead or silent peer);
//   stall  — streaming with bytes buffered for downstream, but the
//            downstream is absorbing them below the configured
//            min-progress rate (slowloris reader). The watchdog samples
//            byte progress per window, so "slow but moving" survives and
//            "stalled" does not.
//
// All deadlines default to 0 = disabled, so embedding RelayLiveness in a
// component changes nothing until a config opts in — in particular the
// simulator's same-seed metric exports stay byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/event_queue.hpp"
#include "util/units.hpp"

namespace lsl::live {

/// Which deadline class expired (reported to the host's on_expire hook and
/// counted by LiveMetrics).
enum class DeadlineKind {
  kHeader,  ///< header-read timeout
  kDial,    ///< next-hop connect() timeout
  kIdle,    ///< no activity and nothing to forward
  kStall,   ///< buffered bytes moving below the min-progress rate
  kDrain,   ///< graceful-drain bound expired (daemon-wide, not per-relay)
};

const char* to_string(DeadlineKind kind);

/// Liveness policy knobs. Durations are util::SimDuration (int64 ns) on the
/// host's timebase; 0 disables that deadline class individually, and a
/// default-constructed config disables the subsystem entirely.
struct LivenessConfig {
  /// Accept → complete header, or the relay fails with a header timeout.
  util::SimDuration header_timeout = 0;
  /// Non-blocking connect() start → writability, or the dial is abandoned.
  util::SimDuration dial_timeout = 0;
  /// Longest tolerated quiet period (no bytes either direction) while
  /// nothing is waiting to be forwarded.
  util::SimDuration idle_timeout = 0;
  /// Progress-watchdog sampling window; each window the relay must move at
  /// least `min_bytes_per_window` toward downstream while bytes are
  /// buffered, or it is declared stalled.
  util::SimDuration stall_window = 0;
  std::uint64_t min_bytes_per_window = 1;
  /// Graceful drain: how long in-flight sessions get to finish (or park)
  /// after a drain begins before the daemon gives up on them. 0 = wait
  /// forever.
  util::SimDuration drain_deadline = 0;

  /// True when any per-relay deadline class is armed.
  bool any_relay_deadline() const {
    return header_timeout > 0 || dial_timeout > 0 || idle_timeout > 0 ||
           stall_window > 0;
  }

  /// The documented defaults (docs/PROTOCOL.md §7) for deployments that
  /// want liveness on without hand-tuning. Tests build their own tighter
  /// configs.
  static LivenessConfig recommended();
};

/// Per-relay deadline state machine over a host-owned timer queue.
///
/// The host reports lifecycle edges (accepted / header done / connected)
/// and activity (bytes moved, buffered-state changes); RelayLiveness keeps
/// at most one header/dial deadline and one idle-or-stall watchdog armed,
/// and calls `on_expire(kind)` when one trips. The host reacts by failing
/// the relay — RelayLiveness never touches sockets itself.
///
/// The idle deadline is re-armed lazily: activity only stamps
/// last_activity, and when the armed deadline fires early it re-schedules
/// at last_activity + idle_timeout instead of expiring (O(1) per byte
/// batch, one timer per relay).
class RelayLiveness {
 public:
  RelayLiveness() = default;
  ~RelayLiveness() { cancel_all(); }

  RelayLiveness(const RelayLiveness&) = delete;
  RelayLiveness& operator=(const RelayLiveness&) = delete;

  /// Bind to a timer queue + config. `on_expire` must outlive this object
  /// or be cancelled first; it runs from the queue. A null queue (or a
  /// config with no deadlines) leaves the object inert.
  void attach(util::EventQueue* timers, const LivenessConfig* config,
              std::function<void(DeadlineKind)> on_expire);

  bool attached() const { return timers_ != nullptr && config_ != nullptr; }

  /// Relay accepted at `now`: arm the header deadline.
  void on_accepted(std::int64_t now);
  /// Header fully parsed: header deadline retired, dial deadline armed.
  void on_header_done(std::int64_t now);
  /// Downstream connect completed: dial deadline retired; the idle/stall
  /// watchdog takes over for the stream phase.
  void on_connected(std::int64_t now);

  /// Any socket activity (bytes in or out, either direction).
  void note_activity(std::int64_t now) { last_activity_ = now; }
  /// Bytes delivered toward downstream (the watchdog's progress signal).
  void note_progress(std::uint64_t bytes) { window_bytes_ += bytes; }
  /// Whether bytes are currently buffered awaiting downstream. True arms
  /// the stall watchdog and suspends the idle deadline; false the reverse.
  void set_should_progress(bool should, std::int64_t now);

  /// Optional: receives the watchdog's measured progress rate in bytes
  /// per second each time a stall window closes with movement — the feed
  /// behind the slowest-relay gauge (min-tracking keeps the floor).
  void set_rate_hook(std::function<void(double bytes_per_second)> hook) {
    rate_hook_ = std::move(hook);
  }

  /// Disarm everything (relay finished, parked, or host shutting down).
  void cancel_all();

 private:
  void arm_idle_at(std::int64_t due);
  void arm_stall_at(std::int64_t window_end);
  void on_idle_fired();
  void on_stall_fired();
  void expire(DeadlineKind kind);

  util::EventQueue* timers_ = nullptr;
  const LivenessConfig* config_ = nullptr;
  std::function<void(DeadlineKind)> on_expire_;
  std::function<void(double)> rate_hook_;

  util::EventId header_token_ = util::kInvalidEvent;
  util::EventId dial_token_ = util::kInvalidEvent;
  /// Idle deadline or stall-window end, whichever is watching the stream.
  util::EventId watch_token_ = util::kInvalidEvent;
  std::int64_t watch_due_ = 0;  ///< instant watch_token_ is armed for

  bool streaming_ = false;
  bool should_progress_ = false;
  std::int64_t last_activity_ = 0;
  std::uint64_t window_bytes_ = 0;
};

/// Outcome of one graceful drain (SIGTERM → stop accepting → finish or
/// park in-flight sessions → exit), reported by the daemon when the drain
/// resolves.
struct DrainReport {
  std::uint64_t in_flight_at_start = 0;  ///< live relays when drain began
  std::uint64_t completed = 0;           ///< finished cleanly during drain
  std::uint64_t parked = 0;              ///< parked awaiting resume
  std::uint64_t aborted = 0;  ///< still live when the deadline expired
  std::uint64_t refused = 0;  ///< new accepts turned away while draining
  bool expired = false;       ///< drain deadline hit before quiescence

  /// One-line human-readable form for logs and the daemon's exit message.
  std::string summary() const;
};

}  // namespace lsl::live
