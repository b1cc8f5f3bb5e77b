// lsd — the Logistical Session Layer forwarding daemon, on real sockets.
//
// This is the artifact the paper describes in §IV.A: a user-level process,
// running without privileges, that "very simply establishes a transport to
// transport binding based on the LSL header information". It accepts a
// session connection, reads the LSL header (src/lsl/wire.hpp — the same
// codec the simulator uses, so the two are wire compatible), dials the next
// hop of the loose source route, forwards the popped header, and then
// relays bytes through a bounded ring buffer. When the buffer fills, it
// stops reading and lets TCP flow control push back on the upstream
// sublink — the hop-by-hop buffering the paper replaces end-to-end
// buffering with.
//
// Single-threaded, nonblocking, driven by an EpollEngine; multiple relays
// multiplex over one loop, and several Lsd instances (a cascade) can share
// a loop in one process for testing. An Lsd is one shard: the daemon that
// ships — with its fault plan, admin endpoint and health boards — is
// posix::ShardedLsd, which runs N of them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "buf/chunk_ring.hpp"
#include "buf/pool.hpp"
#include "engine/epoll_engine.hpp"
#include "health/board.hpp"
#include "lsl/relay_core.hpp"
#include "metrics/instruments.hpp"
#include "posix/socket_util.hpp"

namespace lsl::posix {

/// The engine's earlier name, kept for perfbench/src/loopback.cpp, which
/// still spells it; everything else says engine::EpollEngine.
using EpollLoop = engine::EpollEngine;

/// Daemon configuration.
struct LsdConfig {
  InetAddress bind = InetAddress::loopback(0);  ///< port 0 = ephemeral
  /// Per-session buffering cap. Sessions no longer own a flat ring of this
  /// size: they draw 64 KiB chunks from the daemon-wide pool on demand, up
  /// to this much each, so an idle session costs nothing.
  std::size_t buffer_bytes = 1024 * 1024;
  /// Park window for sessions whose upstream connection died mid-stream:
  /// the relay salvages whatever the kernel still holds, keeps its
  /// downstream connection open, and waits this long for the source to
  /// reconnect with kFlagResume before declaring the session failed.
  /// 0 (the default, documented in docs/PROTOCOL.md §6) disables
  /// resumption — upstream loss fails the session immediately.
  std::chrono::milliseconds resume_grace{0};
  /// Chunk-pool sizing (chunk size, daemon-wide budget, admission
  /// watermarks; see docs/MEMORY.md) for the daemon's own pool. Ignored
  /// when `shared_pool` is set.
  buf::PoolConfig pool;
  /// Optional externally-owned pool (several daemons in one process can
  /// share one budget); must outlive the daemon. Null: the daemon builds
  /// its own from `pool`.
  buf::ChunkPool* shared_pool = nullptr;
  /// Linux splice()-through-pipe zero-copy fast path: while a relay has
  /// nothing buffered in user space, payload moves fd→fd through a kernel
  /// pipe. Falls back to pooled chunks transparently (per relay) when the
  /// kernel refuses; disable to force the copy path everywhere.
  bool use_splice = true;
  /// Liveness deadlines (header/dial/idle/stall) and the graceful-drain
  /// bound, all default-off; see src/live/liveness.hpp and the timeout
  /// table in docs/PROTOCOL.md. Deadlines are timers on the daemon's
  /// engine, so they fire even while no socket is ready.
  live::LivenessConfig liveness;
  /// Bind the listener with SO_REUSEPORT so several daemons (the shards
  /// of a posix::ShardedLsd) can share one port and let the kernel
  /// load-balance accepts. Off for a bare Lsd.
  bool reuse_port = false;
};

/// Why a relay session failed (the largest contributor wins; a session
/// counts under exactly one reason).
enum class LsdFailReason {
  kNone,       ///< session completed — not a failure
  kDial,       ///< downstream connect() refused / unreachable
  kHeader,     ///< malformed or truncated LSL header
  kPeerReset,  ///< connection error (reset/broken pipe) mid-relay
  kTimeout,    ///< a liveness deadline fired (header/dial/idle/stall)
  kOther,      ///< shutdown teardown, premature downstream EOF, ...
};

// The relay lifecycle lives in the shared relay core; these names stay
// here for the daemon's users.
using core::kRelayStateCount;
using core::relay_transition_table;
using core::RelayState;

/// Daemon counters. sessions_refused counts connections refused at accept
/// because the pool crossed its high watermark (admission control;
/// distinct from injected accepts_dropped so callers can tell
/// backpressure from chaos).
struct LsdStats : core::RelayStats {
  /// Of bytes_relayed, bytes that moved through the splice fast path
  /// without crossing user space.
  std::uint64_t bytes_spliced = 0;
  // Failure-reason breakdown; the five reasons sum to sessions_failed.
  // The four timeouts_* classes sum to fail_timeout.
  std::uint64_t fail_dial = 0;
  std::uint64_t fail_header = 0;
  std::uint64_t fail_peer_reset = 0;
  std::uint64_t fail_timeout = 0;
  std::uint64_t fail_other = 0;
  /// Injected accept refusals, and connections shed at the descriptor
  /// limit.
  std::uint64_t accepts_dropped = 0;
};

/// Element-wise sum (aggregating per-shard counters at export).
LsdStats operator+(const LsdStats& a, const LsdStats& b);

/// One forwarding daemon instance: the real-socket adapter around the
/// shared RelayCore.
class Lsd : private core::RelayHost {
 public:
  /// Binds and starts listening immediately; throws std::system_error if
  /// the socket cannot be bound.
  Lsd(engine::EpollEngine& loop, const LsdConfig& config);
  ~Lsd();

  Lsd(const Lsd&) = delete;
  Lsd& operator=(const Lsd&) = delete;

  /// Actual bound port (after ephemeral resolution).
  std::uint16_t port() const { return port_; }

  const LsdStats& stats() const { return stats_; }

  /// The chunk pool relays buffer through (daemon-owned or shared).
  buf::ChunkPool& pool() { return *pool_; }
  const buf::ChunkPool& pool() const { return *pool_; }

  /// Attach a metrics bundle (must outlive the daemon); null detaches.
  void set_metrics(metrics::LsdMetrics* m) { metrics_ = m; }

  /// Attach the liveness instruments (`live.*`); null detaches.
  void set_live_metrics(live::LiveMetrics* m) { core_.set_live_metrics(m); }

  /// Attach a depot health board (must outlive the daemon); null detaches.
  /// With a board attached the daemon scores the next hops it dials —
  /// dial failures and liveness timeouts demote, completed relays promote
  /// and feed the observed-bps EWMA, parks/salvages mark the upstream
  /// peer — and the admin `health` response gains per-depot rows (the
  /// `gossip` command serves the same rows to polling peers). Off by
  /// default: an unattached daemon behaves — and reports — exactly as
  /// before.
  void set_health_board(health::HealthBoard* b) { health_ = b; }
  health::HealthBoard* health_board() const { return health_; }

  /// Attach a span tracer (must outlive the daemon); null detaches. Off by
  /// default; even when attached, spans are only emitted for sessions whose
  /// wire header carries a trace id (version 2), so untraced traffic costs
  /// one branch per lifecycle edge. Times are CLOCK_MONOTONIC seconds —
  /// one machine-wide timebase, so per-daemon dumps from a multi-process
  /// cascade merge directly (tools/lsl_spans).
  void set_tracer(span::Tracer* t) { core_.set_tracer(t); }

  /// Live (unfinished) relays, parked ones included — the admin-socket
  /// health snapshot.
  std::size_t live_relays() const { return relays_.size(); }
  std::size_t parked_relays() const { return core_.parked(); }
  /// Live relays carrying striped (wire v3) sessions — the admin `health`
  /// "stripes" field on a striped daemon.
  std::size_t striped_relays() const;

  // --- Graceful drain ------------------------------------------------------

  /// SIGTERM semantics: keep the listener but refuse new sessions (RST,
  /// counted as sessions_refused_drain), let in-flight sessions finish or
  /// park, and bound the wait by config.liveness.drain_deadline (0 = wait
  /// forever). When the last live relay resolves — or the deadline expires
  /// and the stragglers are torn down — on_drain_done fires with the
  /// report. Idempotent.
  void begin_drain();
  bool draining() const { return core_.draining(); }
  /// True once a started drain has resolved (report final).
  bool drain_done() const { return core_.drain_done(); }
  const live::DrainReport& drain_report() const {
    return core_.drain_report();
  }
  /// Fires exactly once per drain, when it resolves; the daemon is still
  /// alive (the host decides whether to exit).
  std::function<void(const live::DrainReport&)> on_drain_done;

  /// Stop accepting and tear down all live relays.
  void shutdown();

  // --- Fault-injection hooks (driven by posix::LsdFaultDriver) -------------
  // The same failure surface the simulator's FaultInjector exercises on
  // core::DepotApp, against real sockets.

  /// Simulate a daemon death: stop listening and hard-reset (RST) every
  /// live relay. The object survives so restart() can bring it back on
  /// the same port.
  void crash();
  /// Undo crash(): re-bind the listener on the original port.
  void restart();
  /// Refuse (RST-close) the next `n` accepted connections.
  void set_accept_drops(std::uint32_t n) { core_.add_accept_drops(n); }
  /// Claim refusals from `depot`, a count every shard of one depot shares,
  /// instead of this daemon's own (must outlive the daemon).
  void share_accept_drops(std::atomic<std::uint32_t>& depot) {
    core_.share_accept_drops(depot);
  }
  /// Stall/unstall relaying: a stalled daemon keeps its connections but
  /// stops moving bytes (the "slow depot" fault).
  void set_stalled(bool stalled);
  bool stalled() const { return stalled_; }
  /// Hard-reset every live upstream connection mid-stream. With
  /// resume_grace set, the sessions park (their buffered bytes salvaged
  /// first, every byte the source saw acknowledged among them) and await
  /// a kFlagResume reconnect; otherwise they fail.
  void inject_upstream_reset();
  /// Simulate a blackholed next hop: while set, newly-dialed downstream
  /// connections are never observed completing (their EPOLLOUT is
  /// suppressed), so the dial deadline — if configured — is what resolves
  /// them. Clearing re-arms the suppressed dials. This is what
  /// `blackhole:depot=...` in a fault spec maps to.
  void set_dial_blackhole(bool on);
  bool dial_blackhole() const { return dial_blackhole_; }

  /// Fires whenever stats().bytes_relayed advances (after the pump that
  /// moved the bytes) — the byte-offset trigger for scripted faults.
  std::function<void(std::uint64_t bytes_relayed)> on_progress;

 private:
  struct Relay;

  // RelayHost.
  /// Monotonic nanoseconds: the engine timers' timebase.
  std::int64_t now() const override { return engine::EpollEngine::now_ns(); }
  void on_deadline(core::RelaySession& s, live::DeadlineKind kind) override;
  void fail_parked(core::RelaySession& s) override;
  void abort_stragglers() override;
  void on_drain_resolved(const live::DrainReport& report) override {
    if (on_drain_done) on_drain_done(report);
  }

  void on_accept();
  /// Register the relay's upstream fd with the loop.
  void watch_upstream(Relay* r);
  void on_upstream(Relay* r, std::uint32_t events);
  void on_downstream(Relay* r, std::uint32_t events);
  // The pump/flush helpers may finish() the relay on error; they return
  // false when they did, so callers must not keep driving `r`. A finished
  // relay's memory stays valid (parked in graveyard_) until the next safe
  // point, so a buggy late touch trips the kDone contract instead of
  // reading freed memory.
  bool pump_upstream(Relay* r);
  /// The header is in: resume a parked session, or dial the next hop.
  /// Returns false when `r` left service.
  bool start_relay(Relay* r);
  bool pump_downstream(Relay* r);
  bool flush_reverse(Relay* r);
  /// A hard upstream read / downstream write error: count it, then park or
  /// fail the relay. Both return false (`r` left service).
  bool read_failed(Relay* r);
  bool write_failed(Relay* r);
  /// Account `n` payload bytes written downstream.
  void relayed(Relay* r, std::uint64_t n);
  void update_interest(Relay* r);
  /// Whether the splice fast path may ingest right now: nothing buffered in
  /// user space (ring, spill, discard), header forwarded, downstream up.
  bool splice_eligible(const Relay* r) const;
  /// Whether an upstream read could currently be buffered somewhere
  /// (pipe space, ring space, or an acquirable chunk) — the EPOLLIN
  /// predicate; false means backpressure.
  bool can_ingest(const Relay* r) const;
  /// Move stranded pipe bytes into the spill buffer (splice fallback and
  /// park salvage; pipe bytes are older than anything still in the socket).
  bool drain_pipe_to_spill(Relay* r);
  /// Re-pump relays that stopped reading because the pool was dry; called
  /// after event turns that may have released chunks.
  void service_pool_waiters();
  void finish(Relay* r, bool ok,
              LsdFailReason reason = LsdFailReason::kOther);
  /// Take a finished relay out of service: close its sockets, return its
  /// buffers to the pool / allocator at once (live sessions must see the
  /// freed memory now, not after the deferred delete), and move it to the
  /// graveyard.
  void bury(Relay* r);
  /// Free relays finished on earlier event-loop turns. Never called with a
  /// graveyard relay on the call stack.
  void reap_finished();

  /// Upstream connection died: park the session (resume_grace set, header
  /// parsed, no EOF yet) or fail it.
  void handle_upstream_failure(Relay* r);
  /// Drain whatever the upstream kernel buffer still holds into the
  /// relay's spill buffer before the fd closes — acked bytes the resuming
  /// source will not retransmit.
  void salvage_upstream(Relay* r);
  void park_relay(Relay* r);
  /// Adopt `fresh`'s connection into the parked relay its resume header
  /// names; on refusal `fresh` fails (and, on a gap, the parked session).
  void try_resume(Relay* fresh);
  /// Tell the relay's watchdog whether bytes are staged for downstream
  /// (stall watchdog) or not (idle deadline); call after any pump.
  void sync_liveness(Relay* r);

  engine::EpollEngine& loop_;
  LsdConfig config_;
  engine::Fd listener_;
  SpareFd spare_;  ///< sheds connections at the descriptor limit
  std::uint16_t port_ = 0;
  LsdStats stats_;
  metrics::LsdMetrics* metrics_ = nullptr;
  std::unique_ptr<buf::ChunkPool> owned_pool_;
  buf::ChunkPool* pool_ = nullptr;
  /// Daemon-wide splice capability; cleared on the first EINVAL so every
  /// later relay skips the doomed pipe setup.
  bool splice_usable_ = true;
  bool servicing_waiters_ = false;
  bool crashed_ = false;
  bool stalled_ = false;
  bool dial_blackhole_ = false;
  health::HealthBoard* health_ = nullptr;
  core::RelayCore core_;
  /// Live relays, keyed by identity for O(1) finish().
  std::unordered_map<Relay*, std::unique_ptr<Relay>> relays_;
  /// Finished relays awaiting reap_finished() (deferred deletion).
  std::vector<std::unique_ptr<Relay>> graveyard_;
};

}  // namespace lsl::posix
