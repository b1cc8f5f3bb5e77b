// Real-socket LSL endpoints: a session source that streams a deterministic
// payload through a depot route with an MD5 trailer, and a sink server that
// receives, verifies and timestamps sessions. Both are nonblocking apps on
// an EpollEngine, so a full cascade (source -> lsd -> lsd -> sink) runs in a
// single process over loopback — which is exactly how the posix integration
// tests and the lsd_relay example drive them.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "engine/timer.hpp"
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
  bool send_digest = true;
  /// Failure injection: flip one payload byte so the sink's MD5 check must
  /// fail (tests the end-to-end integrity path).
  bool corrupt_one_byte = false;
  /// Survive mid-stream connection loss by reconnecting to the first hop
  /// with kFlagResume from the last acknowledged payload offset (requires
  /// a depot running with `lsd --resume-grace`). Forces send_digest off:
  /// an MD5 trailer cannot rewind across connections — a seeded sink still
  /// verifies content byte-for-byte. Each reconnect asks reconnect_backoff
  /// how long to wait first (a timerfd wait on the event loop, not a
  /// blocking sleep); nullopt means give up.
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
  /// With send_digest: ship this precomputed digest instead of hashing
  /// this connection's own bytes (striped lanes all carry the merged
  /// stream's digest, which only the reassembling sink can check).
  std::optional<md5::Digest> trailer_digest;
};

/// The session id a source derives from its payload seed when its config
/// names none.
core::SessionId seeded_session(std::uint64_t seed);

/// Streams one LSL session (or a raw TCP transfer when route is empty and
/// send_digest is false — then no header is sent either): the real-socket
/// I/O adapter on the source core (src/lsl/source_core.hpp). It keeps the
/// fd, the epoll registration, the timerfd, SIOCOUTQ and the status byte;
/// every decision about what the session sends is the core's.
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

  core::SessionId session() const { return core_.wire_header().session; }

 private:
  void on_io(std::uint32_t events);
  void pump();
  /// Feed the core the acknowledged wire count from the kernel send-queue
  /// depth (SIOCOUTQ): bytes the peer's TCP has acknowledged.
  void note_acked();
  /// Arm the (lazily created) timerfd: `fn` runs `delay_ns` from now.
  void arm_timer(std::int64_t delay_ns, std::function<void()> fn);
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
  /// One timerfd serves both source deadlines: bounding an in-flight dial
  /// and waking from a reconnect backoff; on_timer_ is the armed one.
  std::unique_ptr<engine::EngineTimer> timer_;
  std::function<void()> on_timer_;
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
/// I/O adapter on the sink core (src/lsl/sink_core.hpp). It keeps the fds,
/// the epoll registrations and the status-byte writes; every decision
/// about a connection's bytes is the core's.
class PosixSinkServer : private core::SinkHost {
 public:
  /// Binds immediately (throws std::system_error on failure). Sessions are
  /// expected to carry an LSL header iff `expect_header`. With
  /// `verify_content` false, only the MD5 trailer is checked (arbitrary
  /// payloads); otherwise bytes are also compared against the generator
  /// stream seeded with `payload_seed`.
  PosixSinkServer(engine::EpollEngine& loop, const InetAddress& bind,
                  bool expect_header, std::uint64_t payload_seed,
                  bool verify_content = true);
  ~PosixSinkServer();

  PosixSinkServer(const PosixSinkServer&) = delete;
  PosixSinkServer& operator=(const PosixSinkServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Payload bytes accepted across all sessions so far — a cheap progress
  /// probe for drivers that need "mid-transfer" (chaos tests inject there).
  std::uint64_t bytes_received() const { return core_.payload_bytes(); }

  /// Fires once per completed session.
  std::function<void(const SinkResult&)> on_complete;

  // --- Migration adoption ----------------------------------------------------
  // With adoption on, every headered (non-striped, bounded, digest-free)
  // session is tracked by id across connections in a core::SessionLedger:
  // a kFlagMigrate connection splices onto the original stream at its
  // resume_offset, duplicate prefixes are discarded, gaps are refused, and
  // completion becomes a *stream* property — on_complete fires exactly
  // once, when the stitched frontier reaches the session total, and husk
  // connections (the dying chain's leftovers) close silently. Off (the
  // default), the sink behaves exactly as before — one verdict per
  // connection.

  void set_adopt_migrations(bool on) { core_.set_ledger(on ? &ledger_ : nullptr); }

  /// The session's acknowledged stream frontier — the exact floor a
  /// migrating source must resume from. 0 for unknown sessions.
  std::uint64_t session_frontier(const core::SessionId& id) const {
    return ledger_.frontier(id);
  }
  bool session_completed(const core::SessionId& id) const {
    return ledger_.completed(id);
  }
  /// MD5 of the stitched stream so far (frontier-advancing bytes only, in
  /// order) — equals the whole-payload digest once the session completes.
  md5::Digest session_digest(const core::SessionId& id) const {
    return ledger_.digest(id);
  }

 private:
  struct Conn;
  std::int64_t now() const override;
  void on_stream_verdict(const core::SinkVerdict& v) override;
  void on_accept();
  void on_readable(Conn* c);
  /// Send `status` (when set), close, and destroy the connection.
  void close_conn(Conn* c, std::optional<std::uint8_t> status);

  engine::EpollEngine& loop_;
  core::SessionLedger ledger_;
  core::SinkCore core_;
  engine::Fd listener_;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace lsl::posix
