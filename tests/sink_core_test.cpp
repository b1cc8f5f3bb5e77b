// Unit tests of the sink core (src/lsl/sink_core.hpp) without sockets:
// the SessionLedger that stitches migrated sessions, and the core's
// framing and verdict decisions driven byte by byte through a fake host.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "lsl/payload.hpp"
#include "lsl/sink_core.hpp"
#include "stripe/plan.hpp"
#include "util/rng.hpp"

namespace lsl {
namespace {

using core::SessionHeader;
using core::SessionLedger;

constexpr std::uint64_t kSeed = 41;

std::vector<std::uint8_t> stream(std::uint64_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  core::PayloadGenerator(kSeed).generate(out);
  return out;
}

std::span<const std::uint8_t> slice(const std::vector<std::uint8_t>& s,
                                    std::uint64_t lo, std::uint64_t hi) {
  return std::span<const std::uint8_t>(s).subspan(lo, hi - lo);
}

SessionHeader header(std::uint64_t payload_length, std::uint8_t flags = 0,
                     std::uint64_t resume_offset = 0) {
  SessionHeader h;
  util::Rng rng(7);
  h.session = core::SessionId::generate(rng);
  h.payload_length = payload_length;
  h.flags = flags;
  h.resume_offset = resume_offset;
  return h;
}

// --- SessionLedger -----------------------------------------------------------

TEST(SessionLedger, ResumeAndMigrateHeadersLandAtResumeOffset) {
  SessionLedger ledger(kSeed);
  const SessionHeader original = header(1000);
  EXPECT_EQ(ledger.open(original, 0), 0u);
  // A resume header carries the full length; a migrate header carries
  // (floor, remaining). Both place their first byte at resume_offset.
  EXPECT_EQ(ledger.open(header(1000, core::kFlagResume, 300), 0), 300u);
  EXPECT_EQ(ledger.open(header(700, core::kFlagMigrate, 300), 0), 300u);
  const SessionLedger::Session* s = ledger.find(original.session);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total, 1000u);
  EXPECT_EQ(s->connections, 3u);

  // A migrate header opening a session sums its (floor, remaining) pair.
  SessionLedger fresh(kSeed);
  const SessionHeader migrate = header(700, core::kFlagMigrate, 300);
  EXPECT_EQ(fresh.open(migrate, 0), 300u);
  EXPECT_EQ(fresh.find(migrate.session)->total, 1000u);
}

TEST(SessionLedger, DuplicatePrefixIsDiscardedNotRehashed) {
  SessionLedger ledger(kSeed);
  const auto bytes = stream(1000);
  const SessionHeader original = header(1000);
  const SessionHeader migrate = header(600, core::kFlagMigrate, 400);
  ledger.open(original, 0);
  EXPECT_EQ(ledger.feed(original.session, 0, slice(bytes, 0, 600), 1),
            SessionLedger::Feed::kHeld);
  // The migrate connection re-sends [400, 600) before new bytes.
  const std::uint64_t base = ledger.open(migrate, 2);
  EXPECT_EQ(ledger.feed(migrate.session, base, slice(bytes, 400, 550), 3),
            SessionLedger::Feed::kHeld);
  EXPECT_EQ(ledger.frontier(original.session), 600u);
  EXPECT_EQ(ledger.feed(migrate.session, 550, slice(bytes, 550, 1000), 4),
            SessionLedger::Feed::kCompleted);
  EXPECT_TRUE(ledger.completed(original.session));
  EXPECT_TRUE(ledger.content_ok(original.session));
  EXPECT_TRUE(ledger.digest(original.session) ==
              core::stream_digest(kSeed, 1000));
  EXPECT_EQ(ledger.find(original.session)->complete_time, 4);
}

TEST(SessionLedger, GapIsRefusedAndTheSessionNeverCompletes) {
  SessionLedger ledger(kSeed);
  const auto bytes = stream(1000);
  const SessionHeader original = header(1000);
  ledger.open(original, 0);
  ledger.feed(original.session, 0, slice(bytes, 0, 100), 1);
  // A migrate connection claiming a floor past the frontier: acked bytes
  // were lost, so the session is refused.
  const SessionHeader migrate = header(500, core::kFlagMigrate, 500);
  const std::uint64_t base = ledger.open(migrate, 2);
  EXPECT_EQ(ledger.feed(migrate.session, base, slice(bytes, 500, 1000), 3),
            SessionLedger::Feed::kGap);
  // Even the original connection delivering the rest cannot revive it.
  EXPECT_EQ(ledger.feed(original.session, 100, slice(bytes, 100, 1000), 4),
            SessionLedger::Feed::kHeld);
  EXPECT_FALSE(ledger.completed(original.session));
  EXPECT_FALSE(ledger.content_ok(original.session));
  EXPECT_TRUE(ledger.find(original.session)->gap_refused);
  EXPECT_EQ(ledger.frontier(original.session), 100u);
}

TEST(SessionLedger, CompletionFiresExactlyOnce) {
  SessionLedger ledger(kSeed);
  const auto bytes = stream(256);
  int fired = 0;
  ledger.on_session_complete = [&](const core::SessionId&,
                                   const SessionLedger::Session& s) {
    ++fired;
    EXPECT_EQ(s.frontier, 256u);
  };
  const SessionHeader h = header(256);
  ledger.open(h, 0);
  EXPECT_EQ(ledger.feed(h.session, 0, slice(bytes, 0, 256), 1),
            SessionLedger::Feed::kCompleted);
  // A husk re-delivering bytes after the verdict changes nothing.
  ledger.open(h, 2);
  EXPECT_EQ(ledger.feed(h.session, 0, slice(bytes, 0, 256), 3),
            SessionLedger::Feed::kHeld);
  EXPECT_EQ(fired, 1);
}

TEST(SessionLedger, UnknownSessionsAreInert) {
  SessionLedger ledger(kSeed);
  const auto bytes = stream(16);
  const SessionHeader h = header(16);
  EXPECT_EQ(ledger.feed(h.session, 0, bytes, 0), SessionLedger::Feed::kHeld);
  EXPECT_EQ(ledger.frontier(h.session), 0u);
  EXPECT_FALSE(ledger.completed(h.session));
  EXPECT_FALSE(ledger.content_ok(h.session));
}

// --- SinkCore ----------------------------------------------------------------

struct FakeHost : core::SinkHost {
  std::int64_t now() const override { return 0; }
  void on_stream_verdict(const core::SinkVerdict& v) override {
    verdicts.push_back(v.ok);
  }
  std::vector<bool> verdicts;
};

/// Feed `wire` through `core` the way an adapter does: want() at a time.
core::SinkAction drive(core::SinkCore& core, core::SinkStream& s,
                       std::span<const std::uint8_t> wire) {
  while (!wire.empty()) {
    const std::size_t n = std::min(core.want(s), wire.size());
    const core::SinkAction a = core.ingest(s, wire.first(n));
    if (a != core::SinkAction::kRead) return a;
    wire = wire.subspan(n);
  }
  return core::SinkAction::kRead;
}

std::vector<std::uint8_t> session_wire(const SessionHeader& h,
                                       std::uint64_t payload_bytes) {
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);
  const auto bytes = stream(payload_bytes);
  wire.insert(wire.end(), bytes.begin(), bytes.end());
  if (h.has_digest()) {
    const md5::Digest d = core::stream_digest(kSeed, payload_bytes);
    wire.insert(wire.end(), d.bytes.begin(), d.bytes.end());
  }
  return wire;
}

TEST(SinkCore, BoundedSessionVerifiesLengthContentAndTrailer) {
  FakeHost host;
  core::SinkCore core(host, true, true, true, kSeed, nullptr);
  core::SinkStream s;
  core.open(s, 0);
  const SessionHeader h = header(5000, core::kFlagDigestTrailer);
  EXPECT_EQ(drive(core, s, session_wire(h, 5000)), core::SinkAction::kRead);
  EXPECT_EQ(core.end(s, false), core::SinkAction::kReport);
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.payload_received, 5000u);
  EXPECT_EQ(core.payload_bytes(), 5000u);
  // end() is idempotent: a later error cannot flip the verdict.
  EXPECT_EQ(core.end(s, true), core::SinkAction::kDrop);
  EXPECT_TRUE(s.ok);
}

TEST(SinkCore, ShortBoundedSessionFailsItsVerdict) {
  FakeHost host;
  core::SinkCore core(host, true, true, true, kSeed, nullptr);
  core::SinkStream s;
  core.open(s, 0);
  // No trailer to catch it: only the exact-length rule can.
  auto wire = session_wire(header(5000), 5000);
  wire.resize(wire.size() - 10);
  drive(core, s, wire);
  EXPECT_EQ(core.end(s, false), core::SinkAction::kReport);
  EXPECT_FALSE(s.ok);
}

TEST(SinkCore, UndecodableHeaderIsRefused) {
  FakeHost host;
  core::SinkCore core(host, true, true, false, kSeed, nullptr);
  core::SinkStream s;
  core.open(s, 0);
  SessionHeader h = header(4);
  h.trace_id = 1;
  auto wire = session_wire(h, 4);
  std::fill_n(wire.begin() + 40, core::kTraceIdBytes, 0);
  EXPECT_EQ(drive(core, s, wire), core::SinkAction::kReport);
  EXPECT_TRUE(s.refused);
  EXPECT_FALSE(s.ok);
  EXPECT_FALSE(s.header.has_value());
}

TEST(SinkCore, AdoptedSessionsResolveThroughTheLedger) {
  FakeHost host;
  SessionLedger ledger(kSeed);
  core::SinkCore core(host, true, true, true, kSeed, &ledger);
  const auto bytes = stream(4000);
  // The original connection carries [0, 2500) and dies.
  core::SinkStream first;
  core.open(first, 0);
  const SessionHeader h = header(4000);
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);
  wire.insert(wire.end(), bytes.begin(), bytes.begin() + 2500);
  drive(core, first, wire);
  EXPECT_EQ(core.end(first, true), core::SinkAction::kDrop);
  // The migrate connection re-sends from the floor 2000.
  core::SinkStream second;
  core.open(second, 0);
  SessionHeader m = h;
  m.flags = core::kFlagMigrate;
  m.resume_offset = 2000;
  m.payload_length = 2000;
  wire.clear();
  core::encode_header(m, wire);
  wire.insert(wire.end(), bytes.begin() + 2000, bytes.end());
  EXPECT_EQ(drive(core, second, wire), core::SinkAction::kClose);
  EXPECT_TRUE(second.ok);
  ASSERT_EQ(host.verdicts.size(), 1u);
  EXPECT_TRUE(host.verdicts[0]);
  EXPECT_TRUE(ledger.digest(h.session) == core::stream_digest(kSeed, 4000));
}

// A lane whose plan disagrees with its session's first lane would offer
// bytes outside the merge; it is refused before any byte is placed.
TEST(SinkCore, LaneWithForeignGeometryIsRefused) {
  FakeHost host;
  core::SinkCore core(host, true, true, true, kSeed, nullptr);
  const auto plan = stripe::StripePlan::round_robin(8192, 2, 1024);
  SessionHeader lane0 = header(plan.lane_bytes[0], core::kFlagDigestTrailer);
  lane0.stripe = plan.lanes[0];
  core::SinkStream first;
  core.open(first, 0);
  std::vector<std::uint8_t> wire;
  core::encode_header(lane0, wire);
  EXPECT_EQ(drive(core, first, wire), core::SinkAction::kRead);

  const auto bigger = stripe::StripePlan::round_robin(65536, 2, 1024);
  SessionHeader lane1 = header(bigger.lane_bytes[1], core::kFlagDigestTrailer);
  lane1.stripe = bigger.lanes[1];
  core::SinkStream second;
  core.open(second, 0);
  wire.clear();
  core::encode_header(lane1, wire);
  EXPECT_EQ(drive(core, second, wire), core::SinkAction::kDrop);
  EXPECT_TRUE(second.refused);
}

// The merged stream as lane `j` of `plan` carries it.
std::vector<std::uint8_t> lane_slice(const stripe::StripePlan& plan,
                                     std::size_t j,
                                     const std::vector<std::uint8_t>& merged) {
  stripe::LaneCursor cursor(plan.lanes[j], plan.lane_bytes[j]);
  std::vector<std::uint8_t> out;
  for (auto r = cursor.next(merged.size()); r.length != 0;
       r = cursor.next(merged.size())) {
    const auto piece = slice(merged, r.global, r.global + r.length);
    out.insert(out.end(), piece.begin(), piece.end());
  }
  return out;
}

// Merged bytes that match their trailer but not the seeded stream fail a
// striped session only when content checking is on: the Reassembler's
// digest decides integrity, the content check decides content.
TEST(SinkCore, StripedGroupChecksContentOnlyWhenAsked) {
  const auto plan = stripe::StripePlan::round_robin(8192, 2, 1024);
  auto merged = stream(8192);
  merged.back() ^= 1;
  const md5::Digest trailer = md5::compute(merged);
  for (const bool check : {true, false}) {
    FakeHost host;
    core::SinkCore core(host, true, true, check, kSeed, nullptr);
    core::SinkStream lanes[2];
    for (std::size_t j = 0; j < 2; ++j) {
      SessionHeader h = header(plan.lane_bytes[j], core::kFlagDigestTrailer);
      h.stripe = plan.lanes[j];
      std::vector<std::uint8_t> wire;
      core::encode_header(h, wire);
      const auto bytes = lane_slice(plan, j, merged);
      wire.insert(wire.end(), bytes.begin(), bytes.end());
      wire.insert(wire.end(), trailer.bytes.begin(), trailer.bytes.end());
      core.open(lanes[j], 0);
      EXPECT_EQ(drive(core, lanes[j], wire), core::SinkAction::kRead);
      // The first lane parks until the merge completes under the second.
      EXPECT_EQ(core.end(lanes[j], false),
                j == 0 ? core::SinkAction::kPark : core::SinkAction::kClose);
    }
    ASSERT_EQ(host.verdicts.size(), 1u) << "check=" << check;
    EXPECT_EQ(host.verdicts[0], !check) << "check=" << check;
  }
}

// --- Paired hashing ----------------------------------------------------------
// With two per-connection verifying streams open, the core holds one
// stream's chunk and hashes it with the next chunk of the other stream in
// one two-lane MD5 pass.

constexpr std::uint64_t kPairBytes = 150'000;

/// Feed the rest of each stream's `wire` (past `done[i]` bytes) in turns of
/// at most `chunk` bytes, one turn per stream, until both are through.
void alternate(core::SinkCore& core, core::SinkStream* (&s)[2],
               const std::vector<std::uint8_t> (&wire)[2],
               std::size_t (&done)[2], std::size_t chunk) {
  while (done[0] < wire[0].size() || done[1] < wire[1].size()) {
    for (std::size_t i = 0; i < 2; ++i) {
      if (done[i] == wire[i].size()) continue;
      const std::size_t n =
          std::min({core.want(*s[i]), chunk, wire[i].size() - done[i]});
      ASSERT_EQ(core.ingest(*s[i], slice(wire[i], done[i], done[i] + n)),
                core::SinkAction::kRead);
      done[i] += n;
    }
  }
}

TEST(SinkCore, InterleavedSessionsBothVerify) {
  FakeHost host;
  core::SinkCore core(host, true, true, true, kSeed, nullptr);
  const SessionHeader h = header(kPairBytes, core::kFlagDigestTrailer);
  const std::vector<std::uint8_t> wire[2] = {session_wire(h, kPairBytes),
                                             session_wire(h, kPairBytes)};
  core::SinkStream a, b;
  core::SinkStream* s[2] = {&a, &b};
  std::size_t done[2] = {0, 0};
  core.open(a, 0);
  core.open(b, 0);
  // Turns of a size off the block grid, so pairs start mid-block.
  alternate(core, s, wire, done, 5000);
  // Strict turns of equal chunks: every payload byte went through a pair.
  EXPECT_EQ(core.paired_bytes(), 2 * kPairBytes);
  EXPECT_EQ(core.end(a, false), core::SinkAction::kReport);
  EXPECT_EQ(core.end(b, false), core::SinkAction::kReport);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
}

TEST(SinkCore, FlipInTheSecondStreamOfAPairFailsOnlyThatStream) {
  for (const bool check : {true, false}) {
    FakeHost host;
    core::SinkCore core(host, true, true, check, kSeed, nullptr);
    const SessionHeader h = header(kPairBytes, core::kFlagDigestTrailer);
    std::vector<std::uint8_t> wire[2] = {session_wire(h, kPairBytes),
                                         session_wire(h, kPairBytes)};
    // The first stream's turn is held; the second's arrives to pair with
    // it. Its trailer stays honest, so with content checking off only the
    // paired pass's digest can catch the flip.
    wire[1][h.encoded_size() + 7000] ^= 0x10;
    core::SinkStream a, b;
    core::SinkStream* s[2] = {&a, &b};
    std::size_t done[2] = {0, 0};
    core.open(a, 0);
    core.open(b, 0);
    alternate(core, s, wire, done, 8192);
    EXPECT_EQ(core.end(a, false), core::SinkAction::kReport);
    EXPECT_EQ(core.end(b, false), core::SinkAction::kReport);
    EXPECT_TRUE(a.ok) << "check=" << check;
    EXPECT_FALSE(b.ok) << "check=" << check;
  }
}

TEST(SinkCore, StreamEndingWithItsChunkHeldCountsThoseBytes) {
  FakeHost host;
  // Content checking off: only the MD5 trailer decides.
  core::SinkCore core(host, true, true, false, kSeed, nullptr);
  const SessionHeader h = header(kPairBytes, core::kFlagDigestTrailer);
  const auto wire = session_wire(h, kPairBytes);
  core::SinkStream a, b;
  core.open(a, 0);
  core.open(b, 0);
  ASSERT_EQ(drive(core, b, slice(wire, 0, h.encoded_size())),
            core::SinkAction::kRead);
  // With b open, a's last payload chunk is still held when its trailer
  // arrives and its connection ends.
  ASSERT_EQ(drive(core, a, wire), core::SinkAction::kRead);
  EXPECT_EQ(core.end(a, false), core::SinkAction::kReport);
  EXPECT_TRUE(a.ok);
  ASSERT_EQ(drive(core, b, slice(wire, h.encoded_size(), wire.size())),
            core::SinkAction::kRead);
  EXPECT_EQ(core.end(b, false), core::SinkAction::kReport);
  EXPECT_TRUE(b.ok);
}

TEST(SinkCore, ForgettingTheHoldingStreamDropsItsChunk) {
  FakeHost host;
  core::SinkCore core(host, true, true, true, kSeed, nullptr);
  const SessionHeader h = header(kPairBytes, core::kFlagDigestTrailer);
  const auto wire = session_wire(h, kPairBytes);
  const std::size_t payload = h.encoded_size();
  auto a = std::make_unique<core::SinkStream>();
  core::SinkStream b;
  core.open(*a, 0);
  core.open(b, 0);
  ASSERT_EQ(drive(core, b, slice(wire, 0, payload)), core::SinkAction::kRead);
  ASSERT_EQ(drive(core, *a, slice(wire, 0, payload + 4096)),
            core::SinkAction::kRead);
  // a holds its chunk and goes away mid-stream; b's next chunk must not
  // pair with it.
  core.forget(*a);
  a.reset();
  ASSERT_EQ(drive(core, b, slice(wire, payload, wire.size())),
            core::SinkAction::kRead);
  EXPECT_EQ(core.end(b, false), core::SinkAction::kReport);
  EXPECT_TRUE(b.ok);
}

TEST(SinkCore, ConsecutiveChunksOfOneStreamKeepTheirOrder) {
  FakeHost host;
  core::SinkCore core(host, true, true, false, kSeed, nullptr);
  const SessionHeader h = header(kPairBytes, core::kFlagDigestTrailer);
  const auto wire = session_wire(h, kPairBytes);
  const std::size_t payload = h.encoded_size();
  core::SinkStream a, b;
  core.open(a, 0);
  core.open(b, 0);
  ASSERT_EQ(drive(core, b, slice(wire, 0, payload + 3000)),
            core::SinkAction::kRead);
  // Chunks of a in a row: each flushes the one held before it.
  const std::size_t cut[] = {0, payload + 1000, payload + 70'000,
                             payload + 100'001};
  for (std::size_t i = 0; i + 1 < std::size(cut); ++i) {
    ASSERT_EQ(drive(core, a, slice(wire, cut[i], cut[i + 1])),
              core::SinkAction::kRead);
  }
  // Then the two alternate again to the end.
  core::SinkStream* s[2] = {&a, &b};
  const std::vector<std::uint8_t> wires[2] = {wire, wire};
  std::size_t done[2] = {payload + 100'001, payload + 3000};
  alternate(core, s, wires, done, 4096);
  EXPECT_EQ(core.end(a, false), core::SinkAction::kReport);
  EXPECT_EQ(core.end(b, false), core::SinkAction::kReport);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
}

}  // namespace
}  // namespace lsl
