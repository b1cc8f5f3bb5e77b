// The simulated LSL depot — the paper's `lsd` forwarding daemon.
//
// A depot accepts session connections, reads the LSL header, dials the next
// hop of the loose source route (pipelining: payload is buffered while the
// downstream handshake completes), forwards the popped header, and then
// relays bytes through a bounded ring buffer. Three costs of the real
// user-level daemon are modeled explicitly because the paper calls them out
// as the price LSL pays (§I, §IV footnote 1):
//
//  * bounded buffering ("small, short-lived intermediate buffers") — when
//    the relay buffer fills, the depot stops reading and TCP flow control
//    closes the upstream window (hop-by-hop backpressure);
//  * copy bandwidth — moving bytes between the two sockets through a
//    user-level process is rate-limited (a serial copy resource);
//  * scheduling wakeup latency — each relay pull pays a fixed delay before
//    its bytes are eligible to be written downstream.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "buf/budget.hpp"
#include "lsl/directory.hpp"
#include "lsl/relay_core.hpp"
#include "metrics/instruments.hpp"
#include "tcp/stack.hpp"
#include "util/ring.hpp"
#include "util/units.hpp"

namespace lsl::core {

/// Depot tuning knobs.
struct DepotConfig {
  sim::PortNum port = 4000;                        ///< listening port
  std::uint64_t buffer_bytes = 4 * util::kMiB;     ///< relay ring capacity
  util::DataRate copy_rate = util::DataRate::gbps(2);  ///< memcpy throughput
  util::SimDuration wakeup_latency = util::micros(200);  ///< per-pull delay
  /// Fixed per-session cost between parsing the header and dialing onward:
  /// the unprivileged daemon's scheduling, route lookup and connect()
  /// processing on a shared host. This is what makes very small transfers
  /// slower over LSL than direct TCP (paper Figures 5, 7, 29).
  util::SimDuration session_setup_latency = 0;
  /// How long a session whose upstream connection died is kept parked,
  /// downstream intact, awaiting a kFlagResume reconnect (the paper's §III
  /// mobility scenario). 0 disables resumption: upstream failure aborts.
  util::SimDuration resume_grace = 0;
  /// Admission control (paper §VII): maximum concurrently live sessions;
  /// additional connections are refused at accept. 0 = unlimited.
  std::size_t max_sessions = 0;
  /// Daemon-wide byte budget over buffered relay bytes (ready + in-copy),
  /// the same watermark admission model the real daemon's chunk pool
  /// enforces (docs/MEMORY.md): reads stop at the budget, and new sessions
  /// are refused while usage sits between the high and low watermarks.
  /// 0 (the default) disables it — and keeps same-seed metric exports
  /// byte-identical to pre-budget builds.
  std::uint64_t pool_budget_bytes = 0;
  double pool_low_watermark = 0.50;
  double pool_high_watermark = 0.85;
  /// Liveness policy (src/live): per-relay lifecycle deadlines, the
  /// min-progress watchdog, and the graceful-drain bound — the exact same
  /// LivenessConfig the real daemon takes, run on simulated time. All
  /// durations default to 0 = disabled, which keeps same-seed metric
  /// exports byte-identical to pre-liveness builds (no deadline event is
  /// ever scheduled).
  live::LivenessConfig liveness = {};
};

/// Aggregate depot counters. sessions_refused counts admission-control
/// rejections: the session cap and injected accept drops.
struct DepotStats : RelayStats {
  /// Rejections specifically because the memory budget was under pressure
  /// (disjoint from sessions_refused, so capacity sweeps can tell the
  /// operator's session cap from memory backpressure; the source-side
  /// fault::RoutePolicy backs off on both the same way).
  std::uint64_t sessions_refused_memory = 0;
  std::uint64_t max_buffered = 0;  ///< relay-buffer high-water mark
  /// Times a relay's ring filled and the depot stopped reading upstream
  /// (each one is a hop-by-hop backpressure episode).
  std::uint64_t backpressure_stalls = 0;
  /// Total simulated time spent in those stalls, summed over relays.
  util::SimDuration backpressure_stall_time = 0;
};

/// The depot application on one simulated host: the simulated-socket
/// adapter around the shared RelayCore.
class DepotApp : private RelayHost {
 public:
  /// Binds the listener immediately. `dir` may be null when the stack's
  /// sockets carry real data (headers are then parsed from the stream).
  DepotApp(tcp::TcpStack& stack, DepotConfig config, SessionDirectory* dir);

  DepotApp(const DepotApp&) = delete;
  DepotApp& operator=(const DepotApp&) = delete;

  const DepotStats& stats() const { return stats_; }
  const DepotConfig& config() const { return config_; }
  /// Memory-budget accounting (in_use/peak/pressure); always tracked, only
  /// enforced when config().pool_budget_bytes > 0.
  const buf::MemoryBudget& memory() const { return budget_; }

  /// Observation hook: fires with the downstream socket as each relayed
  /// session dials onward — the experiment harness attaches sublink-2
  /// trace recorders here.
  std::function<void(tcp::TcpSocket*)> on_downstream_open;

  /// Observation hook: fires with the cumulative relayed byte count after
  /// downstream progress. Dispatched through a zero-delay simulator event,
  /// never from inside the relay pump, so a hook may inject faults (crash,
  /// reset) without reentering depot state — the byte-offset trigger of
  /// fault::FaultInjector.
  std::function<void(std::uint64_t)> on_progress;

  // --- Failure injection (src/fault) -----------------------------------
  // These model the daemon process dying and the operator's knobs around
  // it; they are ordinary public API so tests can drive them directly.

  /// The daemon dies: every live session (parked ones included) fails and
  /// the listener closes. Idempotent.
  void crash();
  /// A crashed daemon comes back: re-binds the listener with empty state
  /// (a real restarted process remembers nothing). No-op unless crashed.
  void restart();
  bool crashed() const { return crashed_; }
  /// Refuse (abort) the next `n` accepted connections — a SYN/accept drop.
  void set_accept_drops(std::uint32_t n) { core_.add_accept_drops(n); }
  /// Stall the relay: stop pulling upstream and pushing downstream until
  /// un-stalled (the "slow depot" fault). Parked-session salvage still
  /// runs — acked bytes are never dropped.
  void set_stalled(bool stalled);
  bool stalled() const { return stalled_; }
  /// Reset (RST) the upstream connection of every streaming session, as if
  /// the sender's NAT binding died mid-transfer. With resume_grace > 0 the
  /// sessions park awaiting resume; otherwise they fail.
  void inject_upstream_reset();

  /// Attach a metrics bundle (must outlive the depot's traffic); null
  /// detaches. Gauges report per-relay occupancy sampled at transition
  /// points, so gauge max() is the same high-water mark as
  /// DepotStats::max_buffered.
  void set_metrics(metrics::DepotMetrics* m) { metrics_ = m; }

  /// Attach the `live.*` instrument bundle (timeouts by class, drains,
  /// slowest-relay gauge); null detaches. Off by default so metric exports
  /// only change when a run opts in.
  void set_live_metrics(live::LiveMetrics* m) { core_.set_live_metrics(m); }

  /// Attach a span tracer (must outlive the depot's traffic); null
  /// detaches. Off by default — with no tracer, no span code path touches
  /// any state, so same-seed metric exports stay byte-identical. Spans are
  /// only emitted for sessions whose header carries a trace id.
  void set_tracer(span::Tracer* t) { core_.set_tracer(t); }

  // --- Graceful drain (mirrors posix::Lsd::begin_drain) -----------------

  /// Stop accepting new sessions (refused with RST) and let in-flight ones
  /// finish or park. With config().liveness.drain_deadline > 0 the wait is
  /// bounded: stragglers are aborted at the deadline. Idempotent.
  void begin_drain();
  bool draining() const { return core_.draining(); }
  /// True once every in-flight session has finished, parked, or been
  /// aborted by the drain deadline.
  bool drain_done() const { return core_.drain_done(); }
  /// Meaningful once draining() (final once drain_done()).
  const live::DrainReport& drain_report() const {
    return core_.drain_report();
  }
  /// Fires exactly once, when the drain resolves.
  std::function<void(const live::DrainReport&)> on_drain_done;

 private:
  /// One relayed session: the core's per-session state plus the simulated
  /// sockets and the relay buffer.
  struct Relay : RelaySession {
    tcp::TcpSocket* up = nullptr;
    tcp::TcpSocket* down = nullptr;
    std::uint64_t header_virtual_left = 0;  // virtual-mode header ingest

    // Forwarded header staged for downstream (real mode).
    std::vector<std::uint8_t> fwd_header;
    std::size_t fwd_off = 0;
    std::uint64_t fwd_virtual_left = 0;

    // Relay ring: bytes pulled from upstream, in copy, then ready.
    std::deque<std::vector<std::uint8_t>> ready_chunks;  // real mode
    std::uint64_t ready_bytes = 0;
    std::uint64_t in_copy_bytes = 0;
    std::size_t ready_consumed = 0;  ///< bytes consumed of front chunk

    bool up_eof = false;
    util::SimTime stall_since = -1;  ///< ring-full stall start (-1 = none)
  };

  // RelayHost.
  std::int64_t now() const override { return stack_.sim().now(); }
  void on_deadline(RelaySession& s, live::DeadlineKind) override {
    fail_relay(static_cast<Relay&>(s));
  }
  void fail_parked(RelaySession& s) override {
    fail_relay(static_cast<Relay&>(s));
  }
  void abort_stragglers() override;
  void on_drain_resolved(const live::DrainReport& report) override {
    if (on_drain_done) on_drain_done(report);
  }

  void on_accept(tcp::TcpSocket* up);
  void pull_upstream(Relay& r);
  /// Read header bytes; true once the header is complete (may fail `r`).
  bool ingest_header(Relay& r);
  void pull_payload(Relay& r, bool ignore_space);
  void dial_downstream(Relay& r);
  void on_upstream_error(Relay& r);
  void park_relay(Relay& r);
  /// Re-bind the parked session the fresh relay's resume header names.
  /// Returns false when the core refuses (the fresh relay is then failed).
  bool try_resume(Relay& fresh);
  /// The front of in_copy_ has finished copying: make it ready downstream.
  void copy_complete();
  void pump_downstream(Relay& r);
  /// Account `took` ready bytes sent downstream.
  void relayed(Relay& r, std::uint64_t took);
  void maybe_complete(Relay& r);
  void fail_relay(Relay& r);
  /// Backpressure accounting: a stall begins when the ring refuses an
  /// upstream read and ends when space (or the relay's end) arrives.
  void begin_stall(Relay& r);
  void end_stall(Relay& r);
  /// Refresh occupancy gauges/high-water after buffered(r) changed.
  void note_occupancy(const Relay& r);
  /// Coalesce on_progress dispatch into one zero-delay event.
  void schedule_progress();
  /// Tell the watchdog whether `r` has bytes staged for downstream.
  void sync_liveness(Relay& r);
  std::uint64_t buffered(const Relay& r) const {
    return r.ready_bytes + r.in_copy_bytes;
  }

  tcp::TcpStack& stack_;
  DepotConfig config_;
  SessionDirectory* dir_;
  DepotStats stats_;
  buf::MemoryBudget budget_;
  metrics::DepotMetrics* metrics_ = nullptr;
  bool crashed_ = false;
  bool stalled_ = false;
  bool progress_scheduled_ = false;
  /// The daemon's single copy resource, shared by every relay: one
  /// user-level process has one CPU, so concurrent sessions contend for
  /// copy bandwidth (paper §VII's scalability concern).
  util::SimTime copy_busy_until_ = 0;
  /// Chunks in the copy resource, in completion order. The resource is
  /// serial (copy_busy_until_), so completions are FIFO: each run of the
  /// copy lane takes the front job, and no event callback owns a chunk.
  struct CopyJob {
    Relay* relay = nullptr;
    std::uint64_t bytes = 0;
    std::vector<std::uint8_t> chunk;  ///< empty in virtual mode
  };
  util::Ring<CopyJob> in_copy_;
  util::EventLane copy_done_;
  RelayCore core_;
  std::vector<std::unique_ptr<Relay>> relays_;
};

}  // namespace lsl::core
