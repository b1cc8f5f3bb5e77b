// The sink core: every decision an endpoint makes about a session it
// receives, shared by the simulated sink (core::SinkApp / SinkServer) and
// the real one (posix::PosixSinkServer).
//
// The paper keeps end-to-end integrity at the endpoints: depots relay bytes
// they do not own, and only the sink checks the MD5 over the whole stream.
// Everything about that check that is not I/O lives here, once:
//
//  * header ingest — HeaderReader turns the first bytes into a header or a
//    refusal; a header that fails to decode is refused, never read as a
//    headerless raw stream;
//  * framing — bounded vs kFlagUnboundedStream payloads, the digest
//    trailer, and surplus bytes past it;
//  * the per-connection verdict — exact length for bounded sessions, seeded
//    content, and the trailer MD5;
//  * paired hashing — while two or more per-connection verifying streams
//    are open, one stream's chunk is held back (a copy) until a chunk of a
//    different stream arrives, and the two are hashed in one two-lane MD5
//    pass; a stream's held bytes are always hashed before its next chunk
//    and before its verdict;
//  * migration adoption — bounded, digest-free, unstriped sessions join the
//    SessionLedger by id; resume and migrate headers land at resume_offset;
//  * the striped-lane merge — lane extent sanity, LaneCursor placement, one
//    stripe::Reassembler per session, and lanes parked until it resolves.
//
// It is sans-I/O. The adapter reads want() bytes, hands them to ingest()
// (or reports EOF / error through end()), and carries out the SinkAction it
// gets back: keep reading, send the status byte, close, or park. Verdicts
// that span connections (a ledger session or a stripe group resolving) come
// back through SinkHost, naming the other connections they release.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "lsl/payload.hpp"
#include "lsl/relay_core.hpp"
#include "lsl/wire.hpp"
#include "md5/md5.hpp"
#include "stripe/plan.hpp"
#include "util/units.hpp"

namespace lsl::core {

/// Largest read a sink adapter makes: the one buffer it hands to ingest().
inline constexpr std::size_t kSinkReadBytes = 64 * 1024;

/// Cross-connection session reassembly (sink side).
///
/// Mid-transfer migration (docs/HEALTH.md) splits one logical session
/// across connections arriving through *different* depot chains: the
/// original carries bytes [0, k) before being abandoned, the kFlagMigrate
/// replacement [floor, total) with floor <= k. No single connection sees
/// the whole stream, so per-connection verification cannot vouch for it.
/// The ledger stitches the pieces: per session id it tracks the contiguous
/// frontier from byte 0, silently discards re-sent prefix bytes, refuses
/// gaps (a connection claiming bytes past the frontier means acked data
/// was lost — the session is failed, never papered over), and feeds only
/// frontier-advancing bytes to one PayloadVerifier, keeping the
/// whole-stream MD5 checkable end to end.
class SessionLedger {
 public:
  /// With `check_content` false only the stitched MD5 is kept.
  explicit SessionLedger(std::uint64_t payload_seed, bool check_content = true)
      : seed_(payload_seed), check_content_(check_content) {}

  struct Session {
    SessionHeader header;        ///< the first connection's header
    std::uint64_t total = 0;     ///< logical session bytes
    std::uint64_t frontier = 0;  ///< contiguous bytes secured from 0
    bool gap_refused = false;    ///< a connection claimed bytes we lack
    bool completed = false;      ///< frontier reached total
    std::size_t connections = 0; ///< connections that carried the session
    util::SimTime first_accept = 0;
    util::SimTime complete_time = 0;
  };

  /// Note a connection joining `h.session` (the first one creates the
  /// session) and return the stream offset its first payload byte lands
  /// at: resume_offset for resume and migrate headers, 0 otherwise. A
  /// migrate header carries (floor, remaining), so its total is their sum.
  std::uint64_t open(const SessionHeader& h, util::SimTime now);

  enum class Feed { kHeld, kGap, kCompleted };

  /// Feed payload bytes at absolute stream offset `offset`. Duplicated
  /// prefix bytes (offset + data below the frontier) are discarded; a gap
  /// (offset above the frontier) refuses the session. kCompleted means
  /// this call carried the frontier to the total.
  Feed feed(const SessionId& id, std::uint64_t offset,
            std::span<const std::uint8_t> data, util::SimTime now);

  /// Fires once per session, when its frontier reaches its total.
  std::function<void(const SessionId&, const Session&)> on_session_complete;

  const Session* find(const SessionId& id) const;
  std::uint64_t frontier(const SessionId& id) const;
  bool completed(const SessionId& id) const;
  /// Whole-stream content verdict (seeded-generator comparison).
  bool content_ok(const SessionId& id) const;
  /// MD5 over the stitched stream fed so far.
  md5::Digest digest(const SessionId& id) const;

 private:
  struct State {
    Session s;
    PayloadVerifier verifier;
    State(std::uint64_t seed, bool check) : verifier(seed, check) {}
  };
  std::uint64_t seed_;
  bool check_content_;
  std::map<SessionId, State> sessions_;
};

/// What the adapter does with a connection after ingest() or end().
enum class SinkAction {
  kRead,    ///< keep reading it
  kReport,  ///< its own verdict is in (ok): status byte, close, report it
  kClose,   ///< status byte (ok) and close; the verdict is reported elsewhere
  kDrop,    ///< close without a status byte: a dead lane or an adopted husk
  kPark,    ///< a finished lane whose merge is open: hold it until resolved
};

/// One striped session's merge point (defined with the core).
struct SinkGroup;

/// The per-connection state the core decides on; each adapter's connection
/// derives from it and adds its socket.
struct SinkStream {
  HeaderReader reader;
  bool header_done = false;
  std::optional<SessionHeader> header;  ///< set once a header was read
  std::int64_t accepted = 0;            ///< adapter timebase, ns
  std::uint64_t payload_received = 0;   ///< headers and trailers excluded
  /// Verdict: meaningful once the action said so.
  bool ok = false;
  /// Refused: a bad header, a gap past the ledger frontier, or a lane
  /// claiming more than its plan. Nothing more from it counts.
  bool refused = false;

 private:
  friend class SinkCore;
  bool ended = false;
  std::optional<PayloadVerifier> verifier;  ///< per-connection verdicts
  std::array<std::uint8_t, kDigestTrailerBytes> trailer{};
  std::size_t trailer_got = 0;
  SinkGroup* group = nullptr;                ///< striped lane's merge
  std::optional<stripe::LaneCursor> cursor;  ///< lane placement
  SessionLedger* ledger = nullptr;  ///< adopted: the ledger it feeds
  std::uint64_t base = 0;           ///< adopted: stream offset of byte 0
};

/// A verdict spanning connections: a ledger session or a stripe group.
struct SinkVerdict {
  const SessionHeader* header = nullptr;  ///< the session's first header
  bool ok = false;
  std::uint64_t payload_bytes = 0;
  std::int64_t first_accept = 0;  ///< adapter timebase, ns
  /// Connections (other than the one being fed) the verdict releases: the
  /// adapter sends each the status byte and closes it.
  std::vector<SinkStream*> release;
};

/// One lane-progress event, for striped runs that book lane deaths and
/// rates.
/// Unstriped streams report as lane 0.
struct LaneReport {
  enum class Event { kProgress, kDone, kDead };
  Event event = Event::kProgress;
  std::uint16_t lane = 0;
  std::uint64_t position = 0;  ///< lane bytes placed, resume offset included
  std::uint64_t bytes = 0;     ///< kProgress: lane bytes this step placed
  std::uint64_t fresh = 0;     ///< ... of which the merge had not seen
  std::uint64_t buffered = 0;  ///< merge bytes parked past the frontier
  std::size_t holes = 0;       ///< merge coverage gaps
  bool merged = false;         ///< every session byte is in
};

/// What the core needs from the adapter that owns the sockets.
class SinkHost {
 public:
  /// Current time, int64 ns on the adapter's timebase.
  virtual std::int64_t now() const = 0;
  /// A ledger session or stripe group resolved.
  virtual void on_stream_verdict(const SinkVerdict& v) = 0;

 protected:
  ~SinkHost() = default;
};

/// The decisions, with the cross-connection state they need; one per sink.
class SinkCore {
 public:
  /// `verify` keeps a verifier per stream (content is compared against the
  /// generator seeded with `seed` only when `check_content`); `ledger`
  /// (may be null) adopts migration-capable sessions.
  SinkCore(SinkHost& host, bool expect_header, bool verify,
           bool check_content, std::uint64_t seed, SessionLedger* ledger);
  ~SinkCore();

  SinkCore(const SinkCore&) = delete;
  SinkCore& operator=(const SinkCore&) = delete;

  void set_ledger(SessionLedger* ledger) { ledger_ = ledger; }

  /// Lane-progress hook (may be unset).
  std::function<void(const LaneReport&)> on_lane;

  /// A new connection, accepted at `now`.
  void open(SinkStream& s, std::int64_t now);
  /// Bytes to read next: never past the header, the payload or the trailer.
  std::size_t want(const SinkStream& s) const;
  /// Consume `data` (at most want() bytes).
  SinkAction ingest(SinkStream& s, std::span<const std::uint8_t> data);
  /// The connection hit EOF (or, `failed`, an error). Idempotent.
  SinkAction end(SinkStream& s, bool failed);
  /// The adapter is destroying `s`: forget it (and any chunk it has held).
  void forget(SinkStream& s);

  /// More payload bytes are due on `s` (its header is in and its payload
  /// is not): an adapter that takes turns between streams yields after a
  /// payload read only while this holds.
  bool wants_payload(const SinkStream& s) const;

  /// `s` is a lane still open after its stripe group resolved: owed a status.
  bool owes_status(const SinkStream& s) const;

  /// Payload bytes ingested across every connection.
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  /// Payload bytes hashed in two-lane MD5 passes (both chunks count).
  std::uint64_t paired_bytes() const { return paired_bytes_; }

 private:
  SinkAction on_header(SinkStream& s);
  SinkAction feed_payload(SinkStream& s, std::span<const std::uint8_t> data);
  void feed_lane(SinkStream& s, std::span<const std::uint8_t> data);
  SinkAction feed_ledger(SinkStream& s, std::span<const std::uint8_t> data);
  /// Give `s` its per-connection verifier.
  void start_verifier(SinkStream& s);
  /// Hash `data` into `s`'s verifier: paired with the held chunk of another
  /// stream, held itself while another verifying stream is open, or at once.
  void verify(SinkStream& s, std::span<const std::uint8_t> data);
  /// Hash the held chunk (there must be one) on its own.
  void flush_held();
  void maybe_resolve(SinkGroup& g);
  /// Lane report for an unstriped stream's progress, or any stream's end.
  void report(const SinkStream& s, LaneReport::Event e,
              std::uint64_t bytes = 0);

  SinkHost& host_;
  bool expect_header_;
  bool verify_;
  bool check_content_;
  std::uint64_t seed_;
  SessionLedger* ledger_;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t paired_bytes_ = 0;
  /// Streams with a per-connection verifier that have not ended.
  std::size_t verifying_ = 0;
  /// The stream whose chunk waits in held_ for a partner, or null.
  SinkStream* held_by_ = nullptr;
  std::vector<std::uint8_t> held_;  ///< at most kSinkReadBytes
  /// Striped sessions' merges, kept for the sink's lifetime so a late
  /// replacement lane can still join its session.
  std::map<SessionId, std::unique_ptr<SinkGroup>> groups_;
  /// Adopted connections per session, released when it resolves.
  std::map<SessionId, std::vector<SinkStream*>> attached_;
};

}  // namespace lsl::core
