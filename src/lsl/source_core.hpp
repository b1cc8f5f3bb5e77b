// The source core: every decision an endpoint makes about a session it
// sends, shared by the simulated source (core::SourceApp) and the real one
// (posix::PosixSource), and by the two striped drivers above them
// (exp::StripedRun, posix::StripedPosixSource).
//
// The paper's mobility story (§III) lives at the source: a session outlives
// a dead sublink because the source reconnects with RESUME. Everything
// about that which is not I/O lives here, once:
//
//  * the header each connection carries — a fresh session, kFlagResume at
//    the ack floor, or kFlagMigrate at the sink's floor with
//    payload_length = the remainder; a striped lane's continuation carries
//    its stripe block and resume_offset = the lane floor (LaneSet::plan);
//  * payload framing — seeded generator or payload_fill, the hasher (or a
//    precomputed trailer digest), the one corruption rule, the trailer, and
//    when a finished write ends the session;
//  * the ack floor — conn_offset + acked wire bytes - header bytes, one
//    global offset in both stacks;
//  * recovery — when a connection dies, resume after the host's backoff or
//    give up; migrate(route, floor) with one set of preconditions; and, for
//    N lanes over a stripe::StripePlan, whether a lost lane is settled,
//    absorbed by redundancy, or continued on a chain the host's policy grants.
//
// It is sans-I/O. The adapter asks next() for the bytes to write, reports
// wrote()/acked()/lost()/closed(), and carries out what comes back through
// SourceHost: dial, hang up, wait out a backoff, finish.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "lsl/payload.hpp"
#include "lsl/wire.hpp"
#include "md5/md5.hpp"
#include "stripe/plan.hpp"

namespace lsl::core {

/// What one source sends: the session, its bytes and how to recover it.
struct SourcePlan {
  std::uint64_t payload_bytes = 0;       ///< bytes to transfer
  bool use_header = false;               ///< LSL session (vs. plain TCP)
  /// When use_header. `hops` is the full route, first hop included (the
  /// endpoint the adapter dials); each connection sends it popped.
  SessionHeader header;
  std::uint64_t payload_seed = 1;        ///< real-mode content stream seed
  /// Reconnect-and-resume on connection failure (the §III mobility story).
  /// Needs a header and an unstriped session (lanes recover by restripe).
  /// It turns the digest trailer off: MD5 cannot rewind across an unknown
  /// retransmission boundary, so the sink checks seeded content instead.
  bool resumable = false;
  /// Fault injection (real mode): flip this payload byte each time it is
  /// framed, *after* it entered the digest, so the trailer stays honest and
  /// the sink's end-to-end MD5 check exposes the corruption.
  std::optional<std::uint64_t> corrupt_at_byte;
  /// Fires when corrupt_at_byte is applied (fault accounting).
  std::function<void(std::uint64_t)> on_corrupt;
  /// Striping hook (real mode): when set, payload bytes come from this
  /// filler instead of the seeded generator. `offset` is the absolute
  /// position within this source's payload_bytes; the stripe layer maps it
  /// onto the merged stream through a LaneCursor (src/stripe/plan.hpp).
  /// Offsets may jump backwards across a resume — fillers must be
  /// random-access, like PayloadGenerator::seek.
  std::function<void(std::uint64_t offset, std::span<std::uint8_t> out)>
      payload_fill;
  /// With kFlagDigestTrailer: ship this precomputed digest instead of
  /// hashing this source's own bytes. Striped lanes carry the *merged
  /// stream's* digest — identical on every lane — which only the
  /// reassembling sink can check (docs/STRIPING.md).
  std::optional<md5::Digest> trailer_digest;
};

/// What the core needs from the adapter that owns the connection.
class SourceHost {
 public:
  /// Open a connection to the route's first hop (or the destination); the
  /// core has staged its header. A dial that fails at once may call
  /// SourceCore::lost() from inside.
  virtual void dial() = 0;
  /// Drop the current connection, if any, and any pending wait.
  virtual void hang_up() = 0;
  /// Delay before re-dialing a lost connection, int64 ns on the adapter's
  /// timebase, or nullopt to give up.
  virtual std::optional<std::int64_t> backoff() = 0;
  /// Call SourceCore::redial() once `delay` ns have passed.
  virtual void wait(std::int64_t delay) = 0;
  /// Whether the peer's close after our half-close carries the session's
  /// verdict (the status byte). Without one, only a resumable session
  /// waits for that close.
  virtual bool confirms() const = 0;
  /// The session ended: `ok`, or failed / abandoned. Once, unless a
  /// migrate reopens a session that ended without a verdict.
  virtual void end(bool ok) = 0;

 protected:
  ~SourceHost() = default;
};

/// One session's source decisions; one per session (per lane when
/// striped).
class SourceCore {
 public:
  /// `carry_data` false is the simulator's virtual mode: the core counts
  /// header and payload bytes but frames none.
  SourceCore(SourceHost& host, SourcePlan plan, bool carry_data = true);

  SourceCore(const SourceCore&) = delete;
  SourceCore& operator=(const SourceCore&) = delete;

  // --- Lifecycle -------------------------------------------------------------

  /// Dial the first connection.
  void start() { open(0); }
  /// The current connection died before the session's verdict: resume at
  /// the floor after the host's backoff, or finish unsuccessfully.
  void lost();
  /// The peer closed after our half-close; `ok` is its verdict. A close
  /// before everything was written is a loss.
  void closed(bool ok);
  /// The host's backoff wait elapsed: re-dial at the ack floor.
  void redial();
  /// The one migrate precondition: a resumable session whose outcome is
  /// not final, and a floor short of the payload. A session waiting out a
  /// backoff may migrate; so may one that finished on a close without a
  /// verdict (SourceHost::confirms() false), whose bytes may be stranded
  /// downstream — it reopens. Giving up, failing, or a confirmed verdict
  /// is final.
  bool can_migrate(std::uint64_t floor) const;
  /// Abandon the current chain and continue over `route` (full route,
  /// first hop included) from `floor` — the sink's frontier, which
  /// replaces the ack floor. kFlagMigrate from now on. False (and nothing
  /// happens) unless can_migrate(floor).
  bool migrate(std::vector<HopAddress> route, std::uint64_t floor);

  // --- Framing of the current connection ------------------------------------

  /// The next bytes to write: the rest of the header, then payload filled
  /// into `scratch` (at most its size), then the rest of the trailer.
  /// Empty when everything is written, or payload is next and `scratch` is
  /// empty. Payload bytes are framed once: call again only after writing
  /// all of them. Real mode only.
  std::span<const std::uint8_t> next(std::span<std::uint8_t> scratch);
  /// Virtual mode: bytes of the current part (header, then payload) left.
  std::uint64_t next_virtual() const {
    return (written_ < header_size_ ? header_size_ : payload_end_) - written_;
  }
  /// `n` more wire bytes went to the connection.
  void wrote(std::uint64_t n) { written_ += n; }
  /// Every byte of this connection was written.
  bool write_done() const { return written_ == payload_end_ + trailer_; }
  /// The adapter half-closed after write_done(): the session ends now
  /// unless its verdict or a resumable delivery waits on the peer's close.
  void half_closed();
  /// half_closed() was called on this connection.
  bool closing() const { return closing_; }
  /// The connection's first `wire` bytes are acknowledged: raise the floor.
  void acked(std::uint64_t wire);
  /// Wire bytes written on this connection.
  std::uint64_t written() const { return written_; }

  // --- State ---------------------------------------------------------------

  /// The header the current connection carries.
  const SessionHeader& wire_header() const { return wire_; }
  /// The session's id, from construction on.
  const SessionId& session() const { return plan_.header.session; }
  bool use_header() const { return plan_.use_header; }
  /// Payload offset known delivered: where a resume starts.
  std::uint64_t floor() const { return floor_; }
  bool finished() const { return finished_; }
  bool gave_up() const { return gave_up_; }
  std::size_t resumes() const { return resumes_; }
  std::size_t migrations() const { return migrations_; }

 private:
  /// Stage connection state and the header for `offset`, then dial.
  void open(std::uint64_t offset);
  void finish(bool ok);

  SourceHost& host_;
  SourcePlan plan_;
  bool carry_data_;
  bool resumable_;
  std::uint64_t trailer_ = 0;  ///< digest trailer bytes per connection
  std::optional<PayloadGenerator> generator_;
  std::optional<md5::Md5> hasher_;
  std::optional<md5::Digest> digest_;  ///< the trailer, once computed

  // The current connection: wire = [header][payload][trailer].
  SessionHeader wire_;
  std::vector<std::uint8_t> header_bytes_;
  std::uint64_t header_size_ = 0;
  std::uint64_t payload_end_ = 0;  ///< wire offset the payload ends at
  std::uint64_t conn_offset_ = 0;  ///< payload offset it starts at
  std::uint64_t written_ = 0;
  bool closing_ = false;

  std::uint64_t floor_ = 0;
  bool migrated_ = false;  ///< headers carry kFlagMigrate from now on
  bool finished_ = false;
  bool final_ = false;  ///< finished with a verdict, a failure or give-up
  bool gave_up_ = false;
  std::size_t resumes_ = 0;
  std::size_t migrations_ = 0;
};

/// The lane table of one striped session (an empty plan is one unstriped
/// lane): what each lane connection carries, and what a lost lane becomes.
class LaneSet {
 public:
  struct Lane {
    std::optional<StripeInfo> info;  ///< absent for an unstriped session
    std::uint64_t total = 0;
    bool dead = false;     ///< lost and not (yet) continued
    bool settled = false;  ///< done, absorbed, or the verdict is in
    /// Neither lost nor settled: its connection is still carrying bytes.
    bool live() const { return !dead && !settled; }
  };

  LaneSet(stripe::StripePlan plan, std::uint64_t session_bytes,
          SessionId session, std::uint64_t seed);

  std::size_t size() const { return lanes_.size(); }
  const Lane& operator[](std::size_t li) const { return lanes_[li]; }

  /// Lane `li` from lane offset `floor`: a digest-trailed session carrying
  /// the merged stream's digest, its stripe block, resume_offset = floor
  /// and payload_length = the lane's remainder. Hops and destination are
  /// the adapter's.
  SourcePlan plan(std::size_t li, std::uint64_t floor) const;

  /// The lane's bytes all arrived (or the session's verdict is in).
  void settle(std::size_t li) { lanes_[li].settled = true; }

  enum class Loss {
    kSettled,   ///< nothing to recover: already lost or settled, or every
                ///< lane byte had arrived and only the trailer was cut off
    kAbsorbed,  ///< the surviving lanes carry its stripes (redundancy)
    kRestripe,  ///< continue it on a chain the host's policy grants
  };
  /// Lane `li`'s connection died with `delivered` lane bytes known at the
  /// sink (0 when the host cannot see the sink).
  Loss lose(std::size_t li, std::uint64_t delivered);

  /// Continue lost lane `li` from `floor` on the chain the host chose:
  /// the lane is live again and its plan is returned. An unstriped lane is
  /// verified per connection, so it always continues from 0.
  SourcePlan restripe(std::size_t li, std::uint64_t floor);

  std::uint32_t lost() const { return lost_; }
  std::uint32_t recovered() const { return recovered_; }
  /// Bytes handed to continuations.
  std::uint64_t retransmitted() const { return retransmitted_; }

 private:
  stripe::StripePlan plan_;
  std::vector<Lane> lanes_;
  SessionId session_;
  std::uint64_t seed_;
  md5::Digest digest_;
  std::uint32_t lost_ = 0;
  std::uint32_t recovered_ = 0;
  std::uint64_t retransmitted_ = 0;
};

}  // namespace lsl::core
