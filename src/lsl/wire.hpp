// The LSL wire header and its codec.
//
// A session's initiator specifies a "loose source route" — the list of
// depots the flow should cascade through (§III). The header travels as the
// first bytes of every sublink's byte stream: each depot parses it, pops the
// next hop, dials onward, and forwards the header with the remaining route
// before relaying payload. Both depots — the simulated one (src/lsl/depot.*)
// and the real-socket lsd daemon (src/posix) — parse it through the relay
// core's HeaderReader (src/lsl/relay_core.*), so the two are wire
// compatible by construction.
//
// Layout (big-endian):
//   0   4  magic "LSL1"
//   4   1  version (1, or 2 when a trace id is carried)
//   5   1  flags (SessionFlags bits)
//   6   2  remaining hop count (excluding final destination)
//   8  16  session id
//  24   8  payload length in bytes
//  32   8  resume offset (first payload byte carried; 0 for new sessions)
// [40   8  trace id — versions 2 and 3; joins per-depot span records]
// [48  28  stripe block — version 3 only; see StripeInfo]
//   ..  6*n remaining hops: address(4) + port(2)
//   ..  6  final destination: address(4) + port(2)
//
// Version gating keeps tracing opt-in on the wire: a header is encoded as
// version 2 if and only if trace_id != 0, so untraced sessions are
// byte-identical to what a version-1-only peer expects, and a traced
// session fails fast (header rejected) at such a peer instead of
// silently losing its trace id mid-chain.
//
// Version 3 extends the same bargain to striping: a header is encoded as
// version 3 if and only if it carries a stripe block (the session is split
// across >= 2 disjoint depot chains; see docs/STRIPING.md). Version 3
// always carries the trace-id field — zero when untraced — so the fixed
// length stays unambiguous, and unstriped sessions remain byte-identical
// to version 1/2 peers. A striped lane arriving at a stripe-unaware peer
// is rejected at header parse instead of being reassembled wrongly.
//
// "address" is a node id in the simulator and an IPv4 address in the posix
// implementation — both 32 bits, so headers are layout-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lsl/session_id.hpp"

namespace lsl::core {

/// One hop of a loose source route: 32-bit address + 16-bit port.
struct HopAddress {
  std::uint32_t addr = 0;
  std::uint16_t port = 0;

  friend bool operator==(const HopAddress&, const HopAddress&) = default;
};

/// Maximum number of relay hops a header may carry.
inline constexpr std::size_t kMaxHops = 16;

/// Bytes of the fixed (route-independent) portion of a version-1 header:
/// magic(4) + version(1) + flags(1) + hop count(2) + session id(16) +
/// payload length(8) + resume offset(8) + destination(6).
inline constexpr std::size_t kFixedHeaderBytes = 46;

/// Bytes of the wire-carried trace id (version 2 headers only).
inline constexpr std::size_t kTraceIdBytes = 8;

/// Fixed portion of a version-2 (traced) header: version 1's fields plus
/// the trace id between resume offset and the route.
inline constexpr std::size_t kFixedHeaderBytesV2 =
    kFixedHeaderBytes + kTraceIdBytes;

/// Bytes of the stripe block (version 3 headers only): stripe id(2) +
/// stripe count(2) + chunk(4) + redundancy(1) + mode(1) + reserved(2) +
/// session bytes(8) + range lo(8).
inline constexpr std::size_t kStripeBytes = 28;

/// Maximum stripe fan-out a session may declare (mirrors kMaxHops: each
/// stripe rides its own depot chain, so wider makes no sense on this wire).
inline constexpr std::size_t kMaxStripes = 16;

/// Fixed portion of a version-3 (striped) header: version 2's fields —
/// the trace id is always present, zero when untraced — plus the stripe
/// block between trace id and the route.
inline constexpr std::size_t kFixedHeaderBytesV3 =
    kFixedHeaderBytesV2 + kStripeBytes;

/// Bytes each route entry adds: address(4) + port(2).
inline constexpr std::size_t kBytesPerHop = 6;

/// How a StripePlan assigns session bytes to stripes (wire `mode` field).
enum class StripeMode : std::uint8_t {
  /// Byte-interleaved: logical stripe s owns every chunk c with
  /// c % stripe_count == s. Fully derivable from the stripe block, so a
  /// lane can carry extra neighbouring stripes for redundancy.
  kRoundRobin = 0,
  /// Contiguous: this lane carries exactly [range_lo, range_lo +
  /// payload_length). Used for weighted (rate-proportional) plans;
  /// incompatible with redundancy (nothing to interleave).
  kContiguous = 1,
};

/// The version-3 stripe block: everything a sink (or a rejoining lane)
/// needs to map this connection's bytes back into the merged stream.
///
/// Round-robin semantics with redundancy r: lane j carries logical stripes
/// {j, j+1, ..., j+r} (mod stripe_count), each logical stripe s owning the
/// byte set { k*count*chunk + s*chunk + [0, chunk) } ∩ [0, session_bytes).
/// payload_length in the enclosing header is the lane's own byte count and
/// resume_offset is lane-relative (TCP in-order delivery makes per-lane
/// progress a prefix, so one offset suffices — same trick as v1 resume).
struct StripeInfo {
  std::uint16_t stripe_id = 0;     ///< this lane's index, < stripe_count
  std::uint16_t stripe_count = 0;  ///< total lanes, in [2, kMaxStripes]
  std::uint32_t chunk = 0;         ///< interleave unit; 0 in contiguous mode
  std::uint8_t redundancy = 0;     ///< extra stripes carried; < stripe_count
  StripeMode mode = StripeMode::kRoundRobin;
  std::uint64_t session_bytes = 0;  ///< merged-stream total length
  std::uint64_t range_lo = 0;       ///< contiguous lane start; 0 otherwise

  friend bool operator==(const StripeInfo&, const StripeInfo&) = default;
};

/// True when `s` is an internally consistent stripe block (the conditions
/// decode_header enforces; encode_header throws on their violation).
bool stripe_info_valid(const StripeInfo& s);

/// Header flags.
enum SessionFlags : std::uint8_t {
  kFlagDigestTrailer = 1u << 0,  ///< MD5 trailer (16 bytes) after payload
  /// payload_length is advisory only; the stream runs until FIN. Mutually
  /// exclusive with kFlagDigestTrailer (the trailer needs a known length).
  kFlagUnboundedStream = 1u << 1,
  /// This connection resumes an existing session: resume_offset is the
  /// first payload byte the sender will (re)transmit. A depot holding the
  /// session re-binds its relay to this connection and discards the
  /// duplicated prefix — the paper's §III mobility scenario ("transport
  /// connections may come and go without disrupting the integrity of the
  /// session-layer handle"; the ultimate server never notices).
  kFlagResume = 1u << 2,
  /// This connection continues a session that migrated off its old depot
  /// chain mid-transfer (health plane, docs/HEALTH.md): resume_offset is
  /// the sink-acknowledged floor and payload_length the *remaining* byte
  /// count, like a striped replacement lane. Depots on the new chain relay
  /// it as a fresh session (no prior state to re-bind, unlike
  /// kFlagResume); the SINK recognises the session id and splices the
  /// bytes onto what it already holds.
  kFlagMigrate = 1u << 3,
};

/// Session completion status byte sent by the sink back to the source just
/// before it closes: the end-to-end acknowledgment that the stream arrived
/// intact (or not). A close without a status byte means the session died in
/// transit (e.g. a depot failed to reach the next hop).
inline constexpr std::uint8_t kStatusOk = 0x06;    // ASCII ACK
inline constexpr std::uint8_t kStatusFail = 0x15;  // ASCII NAK

/// The parsed LSL session header.
struct SessionHeader {
  SessionId session;
  std::uint8_t flags = 0;
  /// Exact payload byte count (headers/trailers excluded); advisory only
  /// when kFlagUnboundedStream is set.
  std::uint64_t payload_length = 0;
  /// First payload byte this connection carries (kFlagResume sessions).
  std::uint64_t resume_offset = 0;
  /// End-to-end tracing join key, minted at the source and relayed
  /// unchanged hop to hop. 0 (the default) means untraced: the header is
  /// then encoded as version 1, byte-identical to pre-tracing builds.
  std::uint64_t trace_id = 0;
  /// Stripe block: present exactly when this connection is one lane of a
  /// striped session. Engaged => encoded as version 3 (see file comment).
  std::optional<StripeInfo> stripe;
  std::vector<HopAddress> hops;         ///< remaining relay depots
  HopAddress destination;               ///< ultimate sink

  bool has_digest() const { return (flags & kFlagDigestTrailer) != 0; }
  bool is_resume() const { return (flags & kFlagResume) != 0; }
  bool is_migrate() const { return (flags & kFlagMigrate) != 0; }
  bool is_striped() const { return stripe.has_value(); }

  /// Next endpoint to dial: the first remaining hop, or the destination.
  HopAddress next_hop() const { return hops.empty() ? destination : hops[0]; }

  /// The header this node forwards onward (first hop popped).
  SessionHeader popped() const;

  /// Encoded size of this header in bytes (version dependent).
  std::size_t encoded_size() const {
    const std::size_t fixed =
        stripe ? kFixedHeaderBytesV3
               : (trace_id != 0 ? kFixedHeaderBytesV2 : kFixedHeaderBytes);
    return fixed + kBytesPerHop * hops.size();
  }
};

/// Fixed prefix length needed before the total header length is known.
inline constexpr std::size_t kHeaderPrefixBytes = 8;

/// Size in bytes of the MD5 digest trailer.
inline constexpr std::size_t kDigestTrailerBytes = 16;

/// Serialize `h` (appends to `out`). Throws std::length_error if the route
/// exceeds kMaxHops.
void encode_header(const SessionHeader& h, std::vector<std::uint8_t>& out);

/// Total header length implied by a prefix of >= kHeaderPrefixBytes bytes;
/// nullopt if the prefix is malformed (bad magic/version/hop count).
std::optional<std::size_t> header_length(std::span<const std::uint8_t> prefix);

/// Parse a complete header. nullopt on malformed input.
std::optional<SessionHeader> decode_header(std::span<const std::uint8_t> buf);

}  // namespace lsl::core
