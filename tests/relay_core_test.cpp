// Unit tests of the relay core (src/lsl/relay_core.*) against a fake host:
// header ingest, admission order, the resume ledger and the §6 gap rule,
// park expiry, and drain resolution — the decisions both depots share,
// checked without any sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lsl/relay_core.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace lsl::test {
namespace {

using core::HeaderReader;
using core::RelayCore;
using core::RelaySession;

/// Records what the core asked of its adapter; time is the timer queue's,
/// which the test runs.
struct FakeHost : core::RelayHost {
  util::EventQueue timers;
  std::vector<RelaySession*> failed;
  int drains_resolved = 0;

  std::int64_t now() const override { return timers.now(); }
  void on_deadline(RelaySession& s, live::DeadlineKind) override {
    failed.push_back(&s);
  }
  void fail_parked(RelaySession& s) override { failed.push_back(&s); }
  void abort_stragglers() override {}
  void on_drain_resolved(const live::DrainReport&) override {
    ++drains_resolved;
  }
};

core::SessionHeader sample_header() {
  core::SessionHeader h;
  util::Rng rng(5);
  h.session = core::SessionId::generate(rng);
  h.payload_length = 1000;
  h.hops = {{1, 2}};
  h.destination = {3, 4};
  return h;
}

TEST(HeaderReader, ByteAtATimeNeverAsksPastTheHeader) {
  std::vector<std::uint8_t> wire;
  core::encode_header(sample_header(), wire);
  HeaderReader reader;
  core::SessionHeader out;
  std::size_t fed = 0;
  HeaderReader::Status st = HeaderReader::Status::kNeedMore;
  while (st == HeaderReader::Status::kNeedMore) {
    ASSERT_GT(reader.need(), 0u);
    ASSERT_LE(fed + reader.need(), wire.size());  // never past the header
    st = reader.feed(std::span<const std::uint8_t>(&wire[fed], 1), &out);
    ++fed;
  }
  EXPECT_EQ(st, HeaderReader::Status::kDone);
  EXPECT_EQ(fed, wire.size());
  EXPECT_EQ(reader.need(), 0u);
  EXPECT_EQ(out.session, sample_header().session);
  EXPECT_EQ(out.destination, sample_header().destination);
}

TEST(HeaderReader, RejectsBadMagicAtThePrefix) {
  std::vector<std::uint8_t> wire;
  core::encode_header(sample_header(), wire);
  wire[0] ^= 0xff;
  HeaderReader reader;
  core::SessionHeader out;
  EXPECT_EQ(reader.feed(std::span<const std::uint8_t>(wire.data(),
                                                      reader.need()),
                        &out),
            HeaderReader::Status::kReject);
  EXPECT_EQ(reader.need(), 0u);
}

TEST(HeaderReader, RejectsValidLengthThatDoesNotDecode) {
  core::SessionHeader h = sample_header();
  h.trace_id = 7;  // version 2 ...
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);
  std::fill_n(wire.begin() + 40, core::kTraceIdBytes, 0);  // ... trace id 0
  HeaderReader reader;
  core::SessionHeader out;
  auto st = reader.feed(
      std::span<const std::uint8_t>(wire.data(), reader.need()), &out);
  ASSERT_EQ(st, HeaderReader::Status::kNeedMore);
  st = reader.feed(std::span<const std::uint8_t>(
                       wire.data() + core::kHeaderPrefixBytes, reader.need()),
                   &out);
  EXPECT_EQ(st, HeaderReader::Status::kReject);
}

struct CoreFixture : ::testing::Test {
  FakeHost host;
  core::RelayStats stats;
  live::LivenessConfig liveness;
  RelayCore relay_core{"test", host, host.timers, stats, liveness,
                       /*resume_grace=*/1000, /*max_sessions=*/2};

  /// Accept `s` and complete its header (still kHeader, as a resume
  /// connection is when the core decides it).
  void accept_header(RelaySession& s) {
    ASSERT_EQ(relay_core.admit(false), RelayCore::Admission::kAccept);
    relay_core.accept(s);
    s.header = sample_header();
    relay_core.header_done(s);
  }
  /// ... and on through the dial to the stream phase.
  void stream(RelaySession& s) {
    accept_header(s);
    relay_core.dialing(s);
    relay_core.connected(s);
  }
};

TEST_F(CoreFixture, AdmissionOrderDrainDropCapPressure) {
  relay_core.add_accept_drops(1);
  EXPECT_EQ(relay_core.admit(true), RelayCore::Admission::kDrop);
  EXPECT_EQ(relay_core.admit(true), RelayCore::Admission::kPressure);
  RelaySession a, b;
  stream(a);
  stream(b);
  EXPECT_EQ(relay_core.admit(false), RelayCore::Admission::kCap);
  relay_core.begin_drain();
  EXPECT_EQ(relay_core.admit(false), RelayCore::Admission::kDrain);
  EXPECT_EQ(stats.sessions_refused_drain, 1u);
  EXPECT_EQ(relay_core.drain_report().refused, 1u);
}

TEST_F(CoreFixture, LedgerKeepsTheDistinctHighWaterMark) {
  RelaySession s;
  stream(s);
  EXPECT_EQ(relay_core.ingest(s, 500), 500u);
  ASSERT_TRUE(relay_core.parkable(s, /*up_eof=*/false));
  EXPECT_FALSE(relay_core.parkable(s, /*up_eof=*/true));
  relay_core.park(s);

  RelaySession fresh;
  accept_header(fresh);  // the same session id, now with RESUME
  fresh.header.flags |= core::kFlagResume;
  fresh.header.resume_offset = 200;
  ASSERT_EQ(relay_core.resume(fresh), &s);
  EXPECT_TRUE(fresh.done());
  EXPECT_EQ(s.discard_left, 300u);
  // The resumed connection re-sends 200..500 before anything new.
  EXPECT_EQ(relay_core.ingest(s, 250), 0u);
  EXPECT_EQ(relay_core.ingest(s, 100), 50u);
  EXPECT_EQ(s.payload_pulled, 550u);
  EXPECT_EQ(stats.bytes_discarded, 300u);
  EXPECT_EQ(stats.sessions_resumed, 1u);
  EXPECT_EQ(relay_core.parked(), 0u);
  EXPECT_TRUE(host.failed.empty());
}

TEST_F(CoreFixture, GapFailsTheParkedSessionToo) {
  RelaySession s;
  stream(s);
  relay_core.ingest(s, 500);
  relay_core.park(s);
  RelaySession fresh;
  accept_header(fresh);
  fresh.header.flags |= core::kFlagResume;
  fresh.header.resume_offset = 501;  // the depot holds 500
  EXPECT_EQ(relay_core.resume(fresh), nullptr);
  ASSERT_EQ(host.failed.size(), 1u);
  EXPECT_EQ(host.failed[0], &s);
}

TEST_F(CoreFixture, ParkExpiresAtTheGraceAndResolvesTheDrain) {
  RelaySession s;
  stream(s);
  relay_core.park(s);
  relay_core.begin_drain();  // a parked session does not hold a drain
  EXPECT_TRUE(relay_core.drain_done());
  EXPECT_EQ(relay_core.drain_report().parked, 1u);
  EXPECT_EQ(host.drains_resolved, 1);

  host.timers.run_until(999);
  EXPECT_TRUE(host.failed.empty());
  host.timers.run_until(1000);
  ASSERT_EQ(host.failed.size(), 1u);
  relay_core.finish(s, /*ok=*/false);  // what the adapter does
  EXPECT_EQ(relay_core.parked(), 0u);
  EXPECT_TRUE(host.timers.empty());
}

TEST_F(CoreFixture, DrainWaitsForLiveSessions) {
  RelaySession s;
  stream(s);
  relay_core.begin_drain();
  EXPECT_FALSE(relay_core.drain_done());
  relay_core.finish(s, /*ok=*/true);
  relay_core.maybe_finish_drain();
  EXPECT_TRUE(relay_core.drain_done());
  EXPECT_EQ(relay_core.drain_report().completed, 1u);
  EXPECT_EQ(stats.sessions_completed, 1u);
}

}  // namespace
}  // namespace lsl::test
