// The relay core: every decision a depot makes about a session, shared by
// the simulated depot (core::DepotApp) and the real daemon (posix::Lsd).
//
// The paper's depot "very simply establishes a transport to transport
// binding based on the LSL header information" (§IV.A). Everything about
// that binding that is not I/O lives here, once:
//
//  * admission — accept, or refuse for drain / injected drop / session cap
//    / memory pressure (the adapter sends the RST and counts the refusal);
//  * header ingest — HeaderReader turns a byte stream into a header or a
//    rejection, never reading past the header's last byte;
//  * the relay lifecycle (RelayState and its checked transition table);
//  * the resume ledger — parked-session index, distinct high-water mark,
//    duplicate-prefix discard, the §6 gap rule, and park expiry;
//  * graceful drain and its DrainReport;
//  * liveness deadlines, counted by kind, and the `live.*` hooks;
//  * relay span bookkeeping (accept/header-read backfill, dial, stream
//    windows, park/resume marks, drain).
//
// It is sans-I/O: it never touches a socket or an event loop. Time comes
// from the adapter (RelayHost::now) as int64 nanoseconds — SimTime in the
// simulator, CLOCK_MONOTONIC in the daemon — and its deadlines go on the
// adapter's timer queue on that same timebase (the simulator's event
// queue, or the shard engine's timers). Every action on sockets goes back
// through RelayHost.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <span>

#include "live/live_metrics.hpp"
#include "live/liveness.hpp"
#include "lsl/wire.hpp"
#include "span/span.hpp"
#include "util/contract.hpp"
#include "util/event_queue.hpp"
#include "util/units.hpp"

namespace lsl::core {

/// Lifecycle of one relay session, validated by relay_transition_table().
///
/// kDone is terminal: a finished relay's sockets are gone and its buffers
/// are dead — any attempt to pump it again is the use-after-free class,
/// and aborts as a forbidden kDone edge instead of corrupting the heap.
enum class RelayState {
  kHeader,  ///< reading the upstream session header
  kDial,    ///< header parsed, downstream connect in progress
  kStream,  ///< relaying payload / reverse-path bytes
  kDone,    ///< finished (success or failure); terminal
};

/// Human-readable relay state name (diagnostics).
const char* to_string(RelayState s);

/// Number of RelayState values (TransitionTable dimension).
inline constexpr std::size_t kRelayStateCount = 4;

/// Legal edges of the relay lifecycle; see RelayState.
const util::TransitionTable<RelayState, kRelayStateCount>&
relay_transition_table();

/// Counters both depots keep (DepotStats and posix::LsdStats extend it).
struct RelayStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_failed = 0;
  /// Admission refusals; which reasons land here is the adapter's choice
  /// (its header documents them).
  std::uint64_t sessions_refused = 0;
  /// New connections turned away (RST) while the depot was draining.
  std::uint64_t sessions_refused_drain = 0;
  std::uint64_t sessions_parked = 0;   ///< upstream died, session kept
  std::uint64_t sessions_resumed = 0;  ///< successful kFlagResume rebinds
  /// Liveness deadline expiries by class (each also fails the relay).
  std::uint64_t timeouts_header = 0;
  std::uint64_t timeouts_dial = 0;
  std::uint64_t timeouts_idle = 0;
  std::uint64_t timeouts_stall = 0;
  std::uint64_t bytes_relayed = 0;
  std::uint64_t bytes_discarded = 0;  ///< duplicate prefix on resume
};

/// Longest possible encoded header: an adapter's read buffer of this size
/// always holds need().
inline constexpr std::size_t kMaxHeaderBytes =
    kFixedHeaderBytesV3 + kBytesPerHop * kMaxHops;

/// Incremental LSL header parser. Feed it exactly need() bytes at a time
/// (or fewer): it never asks for a byte past the header, so payload stays
/// in the socket for the relay path.
class HeaderReader {
 public:
  enum class Status { kNeedMore, kDone, kReject };

  /// Bytes wanted before the next decision (0 once done or rejected).
  std::size_t need() const { return want_ - got_; }
  /// Consume `bytes` (at most need()); on kDone `*out` holds the header.
  Status feed(std::span<const std::uint8_t> bytes, SessionHeader* out);

 private:
  std::array<std::uint8_t, kMaxHeaderBytes> buf_{};
  std::size_t got_ = 0;
  std::size_t want_ = kHeaderPrefixBytes;
};

/// The per-relay state the core decides on; each adapter's relay derives
/// from it and adds its sockets and buffers.
struct RelaySession {
  util::CheckedState<RelayState, kRelayStateCount> state{
      relay_transition_table(), RelayState::kHeader};
  HeaderReader reader;
  SessionHeader header;  ///< meaningful once state != kHeader

  // Resume ledger. payload_pulled is the distinct high-water mark: unique
  // payload bytes taken from any upstream connection of this session.
  // discard_left counts duplicated bytes a resumed connection still owes
  // before new ones arrive.
  std::uint64_t payload_pulled = 0;
  std::uint64_t discard_left = 0;
  bool parked = false;
  std::int64_t park_due = 0;
  util::EventId park_token = util::kInvalidEvent;

  // Span tracing (inert unless the header carried a trace id AND a tracer
  // is attached — trace_id stays 0 otherwise).
  std::uint64_t trace_id = 0;
  std::int64_t accept_ns = 0;
  std::int64_t dial_start_ns = 0;   ///< header done; span.dial opens here
  std::uint64_t relayed = 0;        ///< payload bytes this relay pushed
  std::uint64_t window_base = 0;    ///< `relayed` at stream-window open
  std::int64_t window_open_ns = -1; ///< -1 = no open stream window
  /// Stripe lane of a striped (wire v3) session, -1 otherwise: selects the
  /// lane-indexed stream-window span name and feeds the striped-relay
  /// census (admin `health` "stripes").
  int stripe_lane = -1;

  /// Lifecycle deadlines + progress watchdog (inert while the depot's
  /// LivenessConfig is all zeros).
  live::RelayLiveness live;

  bool done() const { return state == RelayState::kDone; }
};

/// What the core needs from the adapter that owns the sockets.
class RelayHost {
 public:
  /// Current time, int64 ns on the adapter's timebase.
  virtual std::int64_t now() const = 0;
  /// A liveness deadline expired (already counted): fail the session.
  virtual void on_deadline(RelaySession& s, live::DeadlineKind kind) = 0;
  /// A parked session lapsed its grace or lost its resume to a gap.
  virtual void fail_parked(RelaySession& s) = 0;
  /// The drain deadline expired: fail every unfinished, unparked session.
  virtual void abort_stragglers() = 0;
  /// The drain resolved; `report` is final.
  virtual void on_drain_resolved(const live::DrainReport& report) = 0;

 protected:
  ~RelayHost() = default;
};

/// The decisions, with the state they need; one per depot.
class RelayCore {
 public:
  enum class Admission { kAccept, kDrain, kDrop, kCap, kPressure };

  /// `name` prefixes log lines ("depot", "lsd"). Deadlines go on
  /// `timers`, which runs on host.now()'s timebase and must outlive the
  /// core; a session's deadlines are disarmed when it finishes, and must
  /// not run after it is gone. `resume_grace` is in ns (0 disables
  /// parking); `max_sessions` 0 = unlimited.
  RelayCore(const char* name, RelayHost& host, util::EventQueue& timers,
            RelayStats& stats, const live::LivenessConfig& liveness,
            std::int64_t resume_grace, std::size_t max_sessions = 0);
  ~RelayCore() { timers_.cancel(drain_token_); }

  RelayCore(const RelayCore&) = delete;
  RelayCore& operator=(const RelayCore&) = delete;

  void set_tracer(span::Tracer* t) { tracer_ = t; }
  span::Tracer* tracer() const { return tracer_; }
  void set_live_metrics(live::LiveMetrics* m) { live_metrics_ = m; }

  // --- Admission and lifecycle ------------------------------------------

  /// Decide a new connection (drain, then injected drop, then the session
  /// cap, then memory pressure). Drain refusals are counted here.
  Admission admit(bool under_pressure);
  void add_accept_drops(std::uint32_t n) {
    accept_drops_->fetch_add(n, std::memory_order_relaxed);
  }
  /// Claim injected drops from `depot` instead of this core's own count,
  /// so the cores of one depot (the shards of a posix::ShardedLsd) refuse
  /// `n` connections between them, not `n` each. Must outlive the core.
  void share_accept_drops(std::atomic<std::uint32_t>& depot) {
    accept_drops_ = &depot;
  }
  /// Adopt an admitted connection: counts it and arms its deadlines.
  void accept(RelaySession& s);
  /// The header is in (s.header set): adopt its trace id and stripe lane,
  /// and backfill the accept/header-read spans.
  void header_done(RelaySession& s);
  /// kHeader -> kDial: the dial deadline and span.dial open now.
  void dialing(RelaySession& s);
  /// kDial -> kStream: the downstream connect completed.
  void connected(RelaySession& s);
  /// -> kDone, counted as completed or failed. Call before the adapter's
  /// own teardown; call maybe_finish_drain() after it.
  void finish(RelaySession& s, bool ok);
  std::size_t parked() const { return parked_; }

  // --- Resume ledger ----------------------------------------------------

  /// Whether an upstream failure parks the session rather than failing it:
  /// resumption enabled, header parsed, no EOF seen yet.
  bool parkable(const RelaySession& s, bool up_eof) const;
  /// Park `s` (its salvage already ingested): index it and start the grace.
  void park(RelaySession& s);
  /// Re-bind the parked session `fresh`'s resume header names. Returns it
  /// (discard_left set; `fresh` -> kDone uncounted) or null: an unknown
  /// session, or a §6 gap — then the parked session fails too
  /// (fail_parked).
  RelaySession* resume(RelaySession& fresh);
  /// Account `got` payload bytes read upstream; returns how many are new
  /// (the rest are the duplicated prefix of a resumed connection).
  std::uint64_t ingest(RelaySession& s, std::uint64_t got) {
    const std::uint64_t drop = got < s.discard_left ? got : s.discard_left;
    s.discard_left -= drop;
    stats_.bytes_discarded += drop;
    s.payload_pulled += got - drop;
    return got - drop;
  }
  /// Fail parked sessions whose grace has passed (a sweep for a host whose
  /// timer queue may not have run a due park deadline yet).
  void expire_parked();

  // --- Liveness -----------------------------------------------------------

  /// Tell the watchdog whether `s` should be progressing: streaming with
  /// bytes staged for downstream (`pending`), or the depot stalled by an
  /// injected `slow` fault (the failure the watchdog exists to surface).
  void sync_liveness(RelaySession& s, bool stalled, bool pending) {
    if (s.done() || s.parked) return;
    s.live.set_should_progress(
        s.state == RelayState::kStream && (stalled || pending), host_.now());
  }
  // --- Drain --------------------------------------------------------------

  /// Stop admitting; resolve once every live session has finished or
  /// parked, or abort the stragglers at liveness.drain_deadline.
  void begin_drain();
  void maybe_finish_drain();
  bool draining() const { return draining_; }
  bool drain_done() const { return drain_done_; }
  const live::DrainReport& drain_report() const { return report_; }

  // --- Spans --------------------------------------------------------------

  /// `took` payload bytes went downstream: one stream-window span per
  /// span::kStreamWindowBytes.
  void note_stream(RelaySession& s, std::uint64_t took) {
    s.relayed += took;
    if (tracer_ != nullptr && s.trace_id != 0 && took > 0) note_window(s, took);
  }
  /// Close a dangling stream window.
  void flush_stream_window(RelaySession& s);
  /// Seconds on the span timebase.
  static double span_sec(std::int64_t ns) { return util::to_seconds(ns); }

 private:
  void on_deadline(RelaySession& s, live::DeadlineKind kind);
  void note_window(RelaySession& s, std::uint64_t took);
  void unpark(RelaySession& s);
  /// A parked session's grace lapsed.
  void expire(RelaySession& s);
  void on_drain_deadline();

  const char* name_;
  RelayHost& host_;
  RelayStats& stats_;
  const live::LivenessConfig& liveness_;
  std::int64_t resume_grace_;
  std::size_t max_sessions_;
  util::EventQueue& timers_;
  live::LiveMetrics* live_metrics_ = nullptr;
  span::Tracer* tracer_ = nullptr;
  /// Injected accept refusals still owed; claimed by decrement-if-positive
  /// so several cores may share one count (share_accept_drops()).
  std::atomic<std::uint32_t> own_accept_drops_{0};
  std::atomic<std::uint32_t>* accept_drops_ = &own_accept_drops_;
  std::size_t live_ = 0;  ///< accepted, not finished; parked included
  std::size_t parked_ = 0;
  /// Parked sessions by id; last writer wins on a duplicate id.
  std::map<SessionId, RelaySession*> index_;
  bool draining_ = false;
  bool drain_done_ = false;
  std::int64_t drain_start_ = 0;
  live::DrainReport report_;
  util::EventId drain_token_ = util::kInvalidEvent;
};

}  // namespace lsl::core
