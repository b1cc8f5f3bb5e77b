// Unit tests of the source core (src/lsl/source_core.hpp) without sockets:
// the header each connection carries, the ack floor across resume and
// migrate, the give-up and migrate decisions, payload framing, and the
// lane-loss decisions of a striped session, all driven through a fake host.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "lsl/payload.hpp"
#include "lsl/source_core.hpp"
#include "lsl/wire.hpp"
#include "md5/md5.hpp"
#include "stripe/plan.hpp"
#include "util/rng.hpp"

namespace lsl {
namespace {

using core::LaneSet;
using core::SessionHeader;
using core::SourceCore;
using core::SourcePlan;

constexpr std::uint64_t kSeed = 57;
constexpr std::uint64_t kBytes = 1000;

/// Records what the core asks of it; answers backoff() from a script.
struct FakeHost : core::SourceHost {
  SourceCore* core = nullptr;
  bool confirm = true;
  std::deque<std::optional<std::int64_t>> backoffs;
  std::vector<SessionHeader> dialed;  ///< wire header at each dial
  std::vector<std::int64_t> waits;
  int hang_ups = 0;
  int ends = 0;
  std::optional<bool> result;

  void dial() override { dialed.push_back(core->wire_header()); }
  void hang_up() override { ++hang_ups; }
  std::optional<std::int64_t> backoff() override {
    if (backoffs.empty()) return 1'000'000;
    const auto d = backoffs.front();
    backoffs.pop_front();
    return d;
  }
  void wait(std::int64_t delay) override { waits.push_back(delay); }
  bool confirms() const override { return confirm; }
  void end(bool ok) override {
    ++ends;
    result = ok;
  }
};

core::SessionId session_id() {
  util::Rng rng(3);
  return core::SessionId::generate(rng);
}

/// A resumable session over two depots.
SourcePlan resumable_plan() {
  SourcePlan p;
  p.payload_bytes = kBytes;
  p.payload_seed = kSeed;
  p.use_header = true;
  p.resumable = true;
  p.header.session = session_id();
  p.header.payload_length = kBytes;
  p.header.hops = {{1, 4000}, {2, 4000}};
  p.header.destination = {9, 5001};
  return p;
}

struct Rig {
  FakeHost host;
  SourceCore core;
  explicit Rig(SourcePlan plan, bool carry_data = true)
      : core(host, std::move(plan), carry_data) {
    host.core = &core;
  }
};

/// Write every byte the current connection frames, in `chunk`-byte
/// payload slices; returns them.
std::vector<std::uint8_t> drain(SourceCore& core, std::size_t chunk = 256) {
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> scratch(chunk);
  for (;;) {
    const auto out = core.next(scratch);
    if (out.empty()) break;
    wire.insert(wire.end(), out.begin(), out.end());
    core.wrote(out.size());
  }
  EXPECT_TRUE(core.write_done());
  return wire;
}

std::uint64_t header_size(const SourceCore& core) {
  return core.wire_header().encoded_size();
}

// --- The header each connection carries -------------------------------------

TEST(SourceCore, FreshResumeAndMigrateHeaders) {
  Rig r(resumable_plan());
  r.core.start();
  ASSERT_EQ(r.host.dialed.size(), 1u);
  const SessionHeader fresh = r.host.dialed[0];
  EXPECT_EQ(fresh.flags, 0);
  EXPECT_EQ(fresh.resume_offset, 0u);
  EXPECT_EQ(fresh.payload_length, kBytes);
  // The first hop is the one dialed; the header carries the rest.
  ASSERT_EQ(fresh.hops.size(), 1u);
  EXPECT_EQ(fresh.hops[0].addr, 2u);
  // The encoded bytes on the wire are exactly that header.
  const std::vector<std::uint8_t> wire = drain(r.core);
  const auto decoded = core::decode_header(
      std::span<const std::uint8_t>(wire).first(header_size(r.core)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->session, fresh.session);
  EXPECT_EQ(decoded->payload_length, kBytes);
  EXPECT_EQ(wire.size(), header_size(r.core) + kBytes);  // no trailer

  // Resume at > 0: kFlagResume at the ack floor, the full length.
  r.core.acked(header_size(r.core) + 300);
  r.core.lost();
  r.core.redial();
  ASSERT_EQ(r.host.dialed.size(), 2u);
  const SessionHeader resume = r.host.dialed[1];
  EXPECT_TRUE(resume.is_resume());
  EXPECT_FALSE(resume.is_migrate());
  EXPECT_EQ(resume.resume_offset, 300u);
  EXPECT_EQ(resume.payload_length, kBytes);

  // Migrate: kFlagMigrate at the sink's floor, payload_length = remainder,
  // over the new route.
  ASSERT_TRUE(r.core.migrate({{7, 4000}, {8, 4000}}, 250));
  ASSERT_EQ(r.host.dialed.size(), 3u);
  const SessionHeader migrate = r.host.dialed[2];
  EXPECT_TRUE(migrate.is_migrate());
  EXPECT_FALSE(migrate.is_resume());
  EXPECT_EQ(migrate.resume_offset, 250u);
  EXPECT_EQ(migrate.payload_length, kBytes - 250);
  ASSERT_EQ(migrate.hops.size(), 1u);
  EXPECT_EQ(migrate.hops[0].addr, 8u);
  EXPECT_EQ(drain(r.core).size(), header_size(r.core) + kBytes - 250);
}

TEST(SourceCore, NothingAckedRedialsAFreshHeader) {
  // The first connection died before the depot could have read the
  // header: a resume at 0 would name a session no depot holds.
  Rig r(resumable_plan());
  r.core.start();
  r.core.acked(header_size(r.core) - 1);  // not even the whole header
  r.core.lost();
  r.core.redial();
  ASSERT_EQ(r.host.dialed.size(), 2u);
  EXPECT_EQ(r.host.dialed[1].flags, 0);
  EXPECT_EQ(r.host.dialed[1].resume_offset, 0u);
  EXPECT_EQ(r.core.resumes(), 1u);
}

TEST(SourceCore, LaneContinuationCarriesStripeBlockAndLaneFloor) {
  const std::uint64_t session_bytes = 10'000;
  stripe::StripePlan plan =
      stripe::StripePlan::round_robin(session_bytes, 3, 512, 0);
  const core::StripeInfo info = plan.lanes[1];
  const std::uint64_t lane_total = plan.lane_bytes[1];
  LaneSet lanes(plan, session_bytes, session_id(), kSeed);
  const std::uint64_t floor = 700;

  SourcePlan p = lanes.plan(1, floor);
  p.header.hops = {{1, 4000}};
  p.header.destination = {9, 5001};
  Rig r(std::move(p));
  r.core.start();
  const std::vector<std::uint8_t> wire = drain(r.core);

  // Byte-identical to the continuation header the striped drivers wrote.
  SessionHeader expect;
  expect.session = session_id();
  expect.flags = core::kFlagDigestTrailer;
  expect.payload_length = lane_total - floor;
  expect.resume_offset = floor;
  expect.stripe = info;
  expect.destination = {9, 5001};
  std::vector<std::uint8_t> expect_bytes;
  core::encode_header(expect, expect_bytes);
  ASSERT_GE(wire.size(), expect_bytes.size());
  EXPECT_TRUE(std::equal(expect_bytes.begin(), expect_bytes.end(),
                         wire.begin()));

  // The payload is the lane's bytes past the floor, mapped onto the
  // merged stream; the trailer is the merged stream's digest.
  std::vector<std::uint8_t> merged(session_bytes);
  core::PayloadGenerator(kSeed).generate(merged);
  stripe::LaneCursor cursor(info, lane_total);
  cursor.skip(floor);
  std::vector<std::uint8_t> expect_payload;
  for (auto g = cursor.next(lane_total); g.length > 0;
       g = cursor.next(lane_total)) {
    expect_payload.insert(expect_payload.end(), merged.begin() + g.global,
                          merged.begin() + g.global + g.length);
  }
  ASSERT_EQ(wire.size(), expect_bytes.size() + expect_payload.size() +
                             core::kDigestTrailerBytes);
  EXPECT_TRUE(std::equal(expect_payload.begin(), expect_payload.end(),
                         wire.begin() + expect_bytes.size()));
  const md5::Digest digest = core::stream_digest(kSeed, session_bytes);
  EXPECT_TRUE(std::equal(digest.bytes.begin(), digest.bytes.end(),
                         wire.end() - core::kDigestTrailerBytes));
}

// --- The ack floor -----------------------------------------------------------

TEST(SourceCore, FloorIsGlobalAcrossResumeMigrateResume) {
  Rig r(resumable_plan());
  r.core.start();
  r.core.acked(header_size(r.core) + 300);
  EXPECT_EQ(r.core.floor(), 300u);
  r.core.lost();
  r.core.redial();
  // The second connection starts at 300: its acks count from there, so a
  // second resume never re-sends from below the first one's offset.
  r.core.acked(header_size(r.core) + 200);
  EXPECT_EQ(r.core.floor(), 500u);
  r.core.lost();
  r.core.redial();
  EXPECT_EQ(r.host.dialed.back().resume_offset, 500u);

  // The sink's frontier replaces the ack floor, even when lower.
  ASSERT_TRUE(r.core.migrate({{7, 4000}}, 400));
  EXPECT_EQ(r.core.floor(), 400u);
  r.core.acked(header_size(r.core) + 100);
  EXPECT_EQ(r.core.floor(), 500u);
  r.core.lost();
  r.core.redial();
  // Still on the migrated chain: kFlagMigrate at the global floor.
  EXPECT_TRUE(r.host.dialed.back().is_migrate());
  EXPECT_EQ(r.host.dialed.back().resume_offset, 500u);
  EXPECT_EQ(r.host.dialed.back().payload_length, kBytes - 500);

  // Acks never raise the floor past the payload (trailer bytes included).
  r.core.acked(header_size(r.core) + 10 * kBytes);
  EXPECT_EQ(r.core.floor(), kBytes);
}

// --- Recovery decisions ------------------------------------------------------

TEST(SourceCore, BackoffGiveUpFinishesExactlyOnce) {
  Rig r(resumable_plan());
  r.host.backoffs = {5'000'000, std::nullopt};
  r.core.start();
  r.core.lost();
  ASSERT_EQ(r.host.waits.size(), 1u);
  EXPECT_EQ(r.host.waits[0], 5'000'000);
  EXPECT_EQ(r.core.resumes(), 1u);
  r.core.redial();
  r.core.lost();  // budget spent
  EXPECT_TRUE(r.core.gave_up());
  EXPECT_TRUE(r.core.finished());
  EXPECT_EQ(r.host.ends, 1);
  EXPECT_EQ(r.host.result, false);
  EXPECT_EQ(r.host.hang_ups, 2);
  // Late news from the dead connection changes nothing.
  r.core.lost();
  r.core.closed(true);
  r.core.redial();
  EXPECT_EQ(r.host.ends, 1);
  EXPECT_EQ(r.host.dialed.size(), 2u);
}

TEST(SourceCore, NonResumableLossFailsWithoutBackoff) {
  SourcePlan p = resumable_plan();
  p.resumable = false;
  Rig r(std::move(p));
  r.host.backoffs = {std::nullopt};  // must not be consulted
  r.core.start();
  r.core.lost();
  EXPECT_EQ(r.host.ends, 1);
  EXPECT_EQ(r.host.result, false);
  EXPECT_FALSE(r.core.gave_up());
  EXPECT_EQ(r.host.backoffs.size(), 1u);
}

TEST(SourceCore, MigrateRefusals) {
  // Finished with a verdict.
  {
    Rig r(resumable_plan());
    r.core.start();
    drain(r.core);
    r.core.half_closed();
    EXPECT_FALSE(r.core.finished());  // awaiting the verdict
    r.core.closed(true);
    EXPECT_TRUE(r.core.finished());
    EXPECT_FALSE(r.core.migrate({{7, 4000}}, 100));
    EXPECT_EQ(r.core.migrations(), 0u);
  }
  // Floor at or past the payload.
  {
    Rig r(resumable_plan());
    r.core.start();
    EXPECT_FALSE(r.core.migrate({{7, 4000}}, kBytes));
    EXPECT_FALSE(r.core.migrate({{7, 4000}}, kBytes + 1));
    EXPECT_EQ(r.host.dialed.size(), 1u);
    EXPECT_EQ(r.host.hang_ups, 0);
  }
  // Not resumable: neither a plain session nor a striped lane.
  {
    SourcePlan p = resumable_plan();
    p.resumable = false;
    Rig r(std::move(p));
    r.core.start();
    EXPECT_FALSE(r.core.can_migrate(0));
    EXPECT_FALSE(r.core.migrate({{7, 4000}}, 0));
  }
  {
    LaneSet lanes(stripe::StripePlan::round_robin(kBytes, 2, 64, 0), kBytes,
                  session_id(), kSeed);
    SourcePlan p = lanes.plan(0, 0);
    p.resumable = true;
    Rig r(std::move(p));
    EXPECT_FALSE(r.core.can_migrate(0));
    r.core.start();
    EXPECT_TRUE(r.core.wire_header().has_digest());
    EXPECT_FALSE(r.core.migrate({{7, 4000}}, 0));
  }
  // Given up.
  {
    Rig r(resumable_plan());
    r.host.backoffs = {std::nullopt};
    r.core.start();
    r.core.lost();
    EXPECT_FALSE(r.core.migrate({{7, 4000}}, 0));
  }
}

TEST(SourceCore, MigrateDuringBackoffAbandonsTheWait) {
  Rig r(resumable_plan());
  r.core.start();
  r.core.acked(header_size(r.core) + 300);
  r.core.lost();
  ASSERT_EQ(r.host.waits.size(), 1u);
  const int hang_ups = r.host.hang_ups;
  ASSERT_TRUE(r.core.migrate({{7, 4000}}, 200));
  EXPECT_EQ(r.host.hang_ups, hang_ups + 1);  // the pending wait is dropped
  EXPECT_EQ(r.host.dialed.size(), 2u);
  EXPECT_TRUE(r.host.dialed.back().is_migrate());
  EXPECT_EQ(r.host.dialed.back().resume_offset, 200u);
}

TEST(SourceCore, CloseWithoutVerdictEndsButMayStillMigrate) {
  Rig r(resumable_plan());
  r.host.confirm = false;
  r.core.start();
  drain(r.core);
  r.core.half_closed();
  EXPECT_FALSE(r.core.finished());  // resumable: delivered on the close
  r.core.closed(true);
  EXPECT_TRUE(r.core.finished());
  EXPECT_EQ(r.host.ends, 1);
  // The close said only that the first hop took the bytes.
  ASSERT_TRUE(r.core.migrate({{7, 4000}}, 600));
  EXPECT_FALSE(r.core.finished());
  EXPECT_EQ(drain(r.core).size(), header_size(r.core) + kBytes - 600);
}

TEST(SourceCore, PlainSessionWithoutVerdictEndsAtHalfClose) {
  SourcePlan p;
  p.payload_bytes = kBytes;
  Rig r(std::move(p));
  r.host.confirm = false;
  r.core.start();
  EXPECT_EQ(drain(r.core).size(), kBytes);  // no header, no trailer
  r.core.half_closed();
  EXPECT_EQ(r.host.ends, 1);
  EXPECT_EQ(r.host.result, true);
}

TEST(SourceCore, OrderlyCloseMidStreamIsALoss) {
  Rig r(resumable_plan());
  r.core.start();
  r.core.closed(true);  // nothing written yet
  EXPECT_FALSE(r.core.finished());
  EXPECT_EQ(r.core.resumes(), 1u);
}

// --- Payload framing ---------------------------------------------------------

TEST(SourceCore, CorruptionHidesUnderAnHonestTrailer) {
  SourcePlan p;
  p.payload_bytes = kBytes;
  p.payload_seed = kSeed;
  p.use_header = true;
  p.header.flags = core::kFlagDigestTrailer;
  p.header.payload_length = kBytes;
  p.corrupt_at_byte = 333;
  std::vector<std::uint64_t> flipped;
  p.on_corrupt = [&](std::uint64_t at) { flipped.push_back(at); };
  Rig r(std::move(p));
  r.core.start();
  const std::vector<std::uint8_t> wire = drain(r.core, 100);
  const std::size_t h = header_size(r.core);
  ASSERT_EQ(wire.size(), h + kBytes + core::kDigestTrailerBytes);

  std::vector<std::uint8_t> clean(kBytes);
  core::PayloadGenerator(kSeed).generate(clean);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < kBytes; ++i) {
    if (wire[h + i] != clean[i]) {
      ++diffs;
      EXPECT_EQ(i, 333u);
    }
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_EQ(flipped, std::vector<std::uint64_t>{333});
  // The trailer hashes the bytes before the flip.
  const md5::Digest d = core::stream_digest(kSeed, kBytes);
  EXPECT_TRUE(std::equal(d.bytes.begin(), d.bytes.end(),
                         wire.end() - core::kDigestTrailerBytes));
}

TEST(SourceCore, ResumableSessionDropsTheDigestTrailer) {
  SourcePlan p = resumable_plan();
  p.header.flags = core::kFlagDigestTrailer;
  Rig r(std::move(p));
  r.core.start();
  EXPECT_FALSE(r.core.wire_header().has_digest());
  EXPECT_EQ(drain(r.core).size(), header_size(r.core) + kBytes);
}

TEST(SourceCore, VirtualModeCountsHeaderThenPayload) {
  Rig r(resumable_plan(), /*carry_data=*/false);
  r.core.start();
  const std::uint64_t h = header_size(r.core);
  EXPECT_EQ(r.core.next_virtual(), h);
  r.core.wrote(h - 1);
  EXPECT_EQ(r.core.next_virtual(), 1u);
  r.core.wrote(1);
  EXPECT_EQ(r.core.next_virtual(), kBytes);
  r.core.wrote(kBytes);
  EXPECT_TRUE(r.core.write_done());
}

// --- Lane loss ---------------------------------------------------------------

TEST(LaneSet, LossIsSettledAbsorbedOrRestriped) {
  const std::uint64_t bytes = 12'000;
  // Redundancy 1: any one lane's death is covered by its neighbours.
  {
    LaneSet lanes(stripe::StripePlan::round_robin(bytes, 3, 512, 1), bytes,
                  session_id(), kSeed);
    EXPECT_EQ(lanes.lose(0, 100), LaneSet::Loss::kAbsorbed);
    EXPECT_TRUE(lanes[0].dead);
    EXPECT_TRUE(lanes[0].settled);
    EXPECT_EQ(lanes.lose(0, 100), LaneSet::Loss::kSettled);
    // A second death leaves a stripe uncovered.
    EXPECT_EQ(lanes.lose(1, 100), LaneSet::Loss::kRestripe);
    EXPECT_EQ(lanes.lost(), 2u);
    EXPECT_EQ(lanes.retransmitted(), 0u);
  }
  // No redundancy: every uncovered death asks for a continuation (the
  // host's recovery policy decides whether one is granted).
  {
    LaneSet lanes(stripe::StripePlan::round_robin(bytes, 3, 512, 0), bytes,
                  session_id(), kSeed);
    const std::uint64_t total = lanes[0].total;
    EXPECT_EQ(lanes.lose(0, 0), LaneSet::Loss::kRestripe);
    EXPECT_FALSE(lanes[0].live());
    const SourcePlan p = lanes.restripe(0, 1024);
    EXPECT_TRUE(lanes[0].live());
    EXPECT_EQ(p.header.resume_offset, 1024u);
    EXPECT_EQ(p.payload_bytes, total - 1024);
    EXPECT_EQ(lanes.recovered(), 1u);
    EXPECT_EQ(lanes.retransmitted(), total - 1024);
    EXPECT_EQ(lanes.lose(0, 0), LaneSet::Loss::kRestripe);
    // A lane whose every byte arrived only lost its trailer.
    EXPECT_EQ(lanes.lose(1, lanes[1].total), LaneSet::Loss::kSettled);
    EXPECT_TRUE(lanes[1].settled);
    EXPECT_FALSE(lanes[1].dead);
    lanes.settle(2);
    EXPECT_EQ(lanes.lose(2, 0), LaneSet::Loss::kSettled);
    EXPECT_EQ(lanes.lost(), 2u);
  }
  // An unstriped session is one lane, verified per connection: it
  // continues from 0 whatever floor the host offers.
  {
    LaneSet lanes(stripe::StripePlan{}, bytes, session_id(), kSeed);
    ASSERT_EQ(lanes.size(), 1u);
    EXPECT_FALSE(lanes[0].info.has_value());
    EXPECT_EQ(lanes.lose(0, 5000), LaneSet::Loss::kRestripe);
    const SourcePlan p = lanes.restripe(0, 5000);
    EXPECT_EQ(p.header.resume_offset, 0u);
    EXPECT_EQ(p.payload_bytes, bytes);
    EXPECT_FALSE(p.payload_fill);
    EXPECT_EQ(lanes.retransmitted(), bytes);
  }
}

}  // namespace
}  // namespace lsl
