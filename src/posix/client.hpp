// Real-socket LSL endpoints: a session source that streams a deterministic
// payload through a depot route with an MD5 trailer, and a sink server that
// receives, verifies and timestamps sessions. Both are nonblocking apps on
// an EpollEngine (the sink on its own thread, reporting to the caller's
// loop), so a full cascade (source -> lsd -> lsd -> sink) runs in a single
// process over loopback — which is exactly how the posix integration tests
// and the lsd_relay example drive them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "engine/fd.hpp"
#include "engine/post_queue.hpp"
#include "engine/shard_thread.hpp"
#include "lsl/payload.hpp"
#include "lsl/session_id.hpp"
#include "lsl/sink_core.hpp"
#include "lsl/source_core.hpp"
#include "lsl/wire.hpp"
#include "md5/md5.hpp"
#include "posix/socket_util.hpp"

namespace lsl::posix {

/// Source configuration.
struct PosixSourceConfig {
  /// Depot hops to cascade through (may be empty = direct to destination).
  std::vector<InetAddress> route;
  InetAddress destination;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_seed = 1;
  /// Failure injection: flip one payload byte so the sink's MD5 check must
  /// fail (tests the end-to-end integrity path).
  bool corrupt_one_byte = false;
  /// Survive mid-stream connection loss by reconnecting to the first hop
  /// with kFlagResume from the last acknowledged payload offset (requires
  /// a depot running with `lsd --resume-grace`). Drops the digest trailer:
  /// an MD5 trailer cannot rewind across connections — a seeded sink still
  /// verifies content byte-for-byte. Each reconnect asks reconnect_backoff
  /// how long to wait first (a timer on the event loop, not a blocking
  /// sleep); nullopt means give up.
  bool resumable = false;
  std::function<std::optional<std::chrono::milliseconds>()>
      reconnect_backoff;
  /// Bound every dial: a connect() that has not resolved within this
  /// window counts as a connection error (resumable sessions fall into
  /// the reconnect path, others fail), so a blackholed depot cannot hang
  /// a session — or a resume — forever. Zero means unbounded.
  std::chrono::milliseconds dial_timeout{0};
  /// Nonzero stamps every header this source sends with a trace id, which
  /// each depot propagates hop-to-hop (wire version 2) and joins its spans
  /// on. Zero (the default) keeps the wire byte-identical to version 1.
  std::uint64_t trace_id = 0;
  /// Session id override: striped lanes must share one id so the sink can
  /// group them into a single reassembly. Unset generates a fresh id.
  std::optional<core::SessionId> session;
  /// Striping: stamp this lane's StripeInfo into the header (wire version
  /// 3) so the sink maps the lane's bytes back into the merged stream.
  /// payload_bytes is then the *lane's* byte count, and `resumable` is
  /// forced off — lane loss is handled above (StripedPosixSource) by
  /// re-striping onto a spare chain, not by kFlagResume.
  std::optional<core::StripeInfo> stripe;
  /// Payload filler consulted instead of the seeded generator when set.
  /// `offset` is lane-relative; striped lanes map it onto merged-stream
  /// content through a stripe::LaneCursor.
  std::function<void(std::uint64_t offset, std::span<std::uint8_t> out)>
      payload_fill;
  /// Ship this precomputed digest as the trailer instead of hashing
  /// this connection's own bytes (striped lanes all carry the merged
  /// stream's digest, which only the reassembling sink can check).
  std::optional<md5::Digest> trailer_digest;
};

/// The session id a source derives from its payload seed when its config
/// names none.
core::SessionId seeded_session(std::uint64_t seed);

/// Streams one LSL session — a header, the payload and, unless resumable,
/// an MD5 trailer: the real-socket I/O adapter on the source core
/// (src/lsl/source_core.hpp). It keeps the fd, the epoll registration, its
/// timer, SIOCOUTQ and the status byte; every decision about what the
/// session sends is the core's.
class PosixSource : private core::SourceHost {
 public:
  PosixSource(engine::EpollEngine& loop, PosixSourceConfig config);
  ~PosixSource();

  PosixSource(const PosixSource&) = delete;
  PosixSource& operator=(const PosixSource&) = delete;

  /// Connect and start streaming. on_done(ok) fires when the peer confirms
  /// completion by closing the connection after our FIN.
  void start();

  /// Proactive mid-transfer re-selection: abandon the current chain — or
  /// the reconnect backoff it is waiting out — and re-send everything past
  /// `floor` through `new_route` with kFlagMigrate. `floor` must be the
  /// sink's acknowledged stream frontier (the driver reads it from
  /// PosixSinkServer::session_frontier) — never this source's own ack
  /// counter, which counts bytes that may still be stranded in the dying
  /// chain's buffers. Fresh depots relay the migrate connection as an
  /// ordinary session; only a sink in adopt mode splices it. Returns false
  /// unless the session is resumable, unfinished, and `floor` is short of
  /// the payload.
  bool migrate(std::vector<InetAddress> new_route, std::uint64_t floor);

  /// Completion callback: `ok` is false on any socket/protocol error.
  std::function<void(bool ok)> on_done;

  bool finished() const { return core_.finished(); }

  /// Resume cycles performed (reconnects after mid-stream loss).
  std::size_t resumes() const { return core_.resumes(); }

  /// Proactive migrations performed (mid-transfer route re-selections).
  std::size_t migrations() const { return core_.migrations(); }

  core::SessionId session() const { return core_.session(); }

 private:
  void on_io(std::uint32_t events);
  void pump();
  /// Feed the core the acknowledged wire count from the kernel send-queue
  /// depth (SIOCOUTQ): bytes the peer's TCP has acknowledged.
  void note_acked();
  /// Run `fn` `delay_ns` from now, replacing any armed timer.
  void arm_timer(std::int64_t delay_ns, std::function<void()> fn);
  void disarm_timer();
  // SourceHost
  void dial() override;
  void hang_up() override;
  std::optional<std::int64_t> backoff() override;
  void wait(std::int64_t delay) override;
  bool confirms() const override { return true; }
  void end(bool ok) override;

  engine::EpollEngine& loop_;
  PosixSourceConfig config_;
  core::SourceCore core_;
  engine::Fd sock_;
  /// The one armed source deadline: bounding an in-flight dial, or waking
  /// from a reconnect backoff.
  util::EventId timer_ = util::kInvalidEvent;
  bool connecting_ = false;
  std::vector<std::uint8_t> chunk_;      ///< reused payload staging buffer
  std::span<const std::uint8_t> out_;   ///< framed bytes not yet written
  std::uint8_t status_ = 0;  ///< sink's end-to-end status byte
};

/// Result of one received session.
struct SinkResult {
  bool verified = false;        ///< content + digest matched
  std::uint64_t payload_bytes = 0;
  double seconds = 0.0;         ///< accept -> completion wall time
  std::optional<core::SessionHeader> header;
};

/// Accepts sessions and verifies their payload streams: the real-socket
/// I/O adapter on the sink core (src/lsl/sink_core.hpp). Every decision
/// about a connection's bytes is the core's.
///
/// Threads. The sink runs on a thread of its own (an engine::ShardThread
/// driving a private EpollEngine). The listener, every connection, the
/// core, the migration ledger and the stripe groups live there, so the
/// reads and the MD5 never run on the loop passed to the constructor. That
/// loop is the *owner*: on_complete runs on it, and it must outlive the
/// sink. A verdict crosses threads once: the sink thread deregisters the
/// connections it releases and posts the result with their fds to the
/// owner (a PostQueue plus an eventfd the sink registers on the owner
/// loop). The owner runs on_complete and only then writes each status
/// byte and closes, so a source that holds its status has already been
/// counted. Every status byte takes that hop, in order behind the verdicts
/// posted before it; closes without one (a dead lane, an adopted husk)
/// stay on the sink thread. The queries below are posted to the sink
/// thread and wait for its answer, which cannot deadlock: the sink thread
/// never waits on its owner.
class PosixSinkServer : private core::SinkHost {
 public:
  /// Binds immediately (throws std::system_error on failure) and starts
  /// the sink thread. Sessions are expected to carry an LSL header iff
  /// `expect_header`. With `verify_content` false, only the MD5 trailer is
  /// checked (arbitrary payloads); otherwise bytes are also compared
  /// against the generator stream seeded with `payload_seed`.
  PosixSinkServer(engine::EpollEngine& owner, const InetAddress& bind,
                  bool expect_header, std::uint64_t payload_seed,
                  bool verify_content = true);
  /// Stops and joins the sink thread; connections and verdicts not yet
  /// delivered are closed without a status byte.
  ~PosixSinkServer();

  PosixSinkServer(const PosixSinkServer&) = delete;
  PosixSinkServer& operator=(const PosixSinkServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Payload bytes accepted across all sessions so far — a cheap progress
  /// probe for drivers that need "mid-transfer" (chaos tests inject there).
  /// Published by the sink thread after every read.
  std::uint64_t bytes_received() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Fires once per completed session, on the owner loop, before the
  /// session's status bytes are written.
  std::function<void(const SinkResult&)> on_complete;

  /// Verdicts posted to the owner loop and not yet delivered.
  std::size_t pending_verdicts() const { return verdicts_.pending(); }

  /// Lanes open after their merge's verdict, each owed a status byte. An
  /// owner stopping after on_complete waits for this, then pending_verdicts().
  std::size_t owed_statuses();

  /// Payload bytes hashed in two-lane MD5 passes (core::SinkCore).
  std::uint64_t paired_bytes();

  // --- Migration adoption ----------------------------------------------------
  // With adoption on, every headered (non-striped, bounded, digest-free)
  // session is tracked by id across connections in a core::SessionLedger:
  // a kFlagMigrate connection splices onto the original stream at its
  // resume_offset, duplicate prefixes are discarded, gaps are refused, and
  // completion becomes a *stream* property — on_complete fires exactly
  // once, when the stitched frontier reaches the session total, and husk
  // connections (the dying chain's leftovers) close silently. Off (the
  // default), the sink behaves exactly as before — one verdict per
  // connection. Connections accepted after the call returns see the new
  // setting.

  void set_adopt_migrations(bool on);

  /// The session's acknowledged stream frontier — the exact floor a
  /// migrating source must resume from. 0 for unknown sessions.
  std::uint64_t session_frontier(const core::SessionId& id);
  bool session_completed(const core::SessionId& id);
  /// MD5 of the stitched stream so far (frontier-advancing bytes only, in
  /// order) — equals the whole-payload digest once the session completes.
  md5::Digest session_digest(const core::SessionId& id);

 private:
  struct Conn;
  /// Run `fn` on the sink thread and wait for its result.
  template <typename Fn>
  auto on_sink_thread(Fn fn);
  std::int64_t now() const override;
  void on_stream_verdict(const core::SinkVerdict& v) override;
  void on_accept();
  void on_readable(Conn* c);
  /// Forget, deregister and destroy the connection; its fd is returned.
  engine::Fd release(Conn* c);
  /// Post `fds` to the owner, which reports `result` (when set), then
  /// writes `status` to each fd and closes it.
  void post_verdict(std::optional<SinkResult> result,
                    std::vector<engine::Fd> fds, std::uint8_t status);
  /// Run `task` on the owner loop.
  void post_to_owner(engine::PostQueue::Task task);
  /// Owner loop: deliver every posted verdict.
  void on_verdicts();

  engine::EpollEngine& owner_;
  engine::EpollEngine engine_;  ///< the sink thread's loop
  core::SessionLedger ledger_;
  core::SinkCore core_;
  engine::Fd listener_;
  SpareFd spare_;  ///< sheds connections at the descriptor limit
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> bytes_{0};
  /// Owner -> sink thread: queries, drained on engine_'s wakeup.
  engine::PostQueue posts_;
  /// Sink thread -> owner: verdicts, signalled through verdict_fd_.
  engine::PostQueue verdicts_;
  engine::Fd verdict_fd_;  ///< eventfd registered on the owner loop
  std::atomic<bool> stop_{false};
  /// Set when the sink thread stopped on an exception, which it forwards
  /// to the owner loop; queries then fail instead of waiting.
  std::atomic<bool> failed_{false};
  /// Declared last: joined before any member it uses goes.
  engine::ShardThread thread_;
};

}  // namespace lsl::posix
