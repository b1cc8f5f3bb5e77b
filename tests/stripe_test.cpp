// Stripe tier, simulator half: the version-3 wire gating, the plan /
// LaneCursor geometry, the sink-side Reassembler, and run_striped's
// composition with the fault machinery (a depot crash killing a lane
// mid-transfer, recovered by re-striping or absorbed by redundancy).
// Carries the `stripe` ctest label; scripts/check.sh runs the label as its
// own column, plain and under TSan.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "exp/striped.hpp"
#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "lsl/payload.hpp"
#include "lsl/source_core.hpp"
#include "lsl/wire.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "stripe/plan.hpp"
#include "stripe/reassemble.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

core::SessionHeader striped_header() {
  util::Rng rng(7);
  core::SessionHeader h;
  h.session = core::SessionId::generate(rng);
  h.flags = core::kFlagDigestTrailer;
  h.payload_length = 1033920;
  h.stripe.emplace();
  h.stripe->stripe_id = 1;
  h.stripe->stripe_count = 3;
  h.stripe->chunk = 64 * 1024;
  h.stripe->redundancy = 1;
  h.stripe->mode = core::StripeMode::kRoundRobin;
  h.stripe->session_bytes = 3000000;
  h.hops = {{0x0a000001, 4000}};
  h.destination = {0x0a000002, 5001};
  return h;
}

// ---------------------------------------------------------------------------
// Wire: the version-3 stripe block and its gating.

TEST(StripeWire, V3RoundTripRoundRobin) {
  const core::SessionHeader h = striped_header();
  std::vector<std::uint8_t> buf;
  core::encode_header(h, buf);
  EXPECT_EQ(buf[4], 3u);  // version byte: striped => 3
  EXPECT_EQ(buf.size(), core::kFixedHeaderBytesV3 + core::kBytesPerHop);

  const auto d = core::decode_header(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->is_striped());
  EXPECT_EQ(d->session, h.session);
  EXPECT_EQ(d->payload_length, h.payload_length);
  EXPECT_EQ(*d->stripe, *h.stripe);
  EXPECT_EQ(d->hops, h.hops);
  EXPECT_EQ(d->destination, h.destination);
}

TEST(StripeWire, V3RoundTripContiguousWithTraceAndResume) {
  core::SessionHeader h = striped_header();
  h.trace_id = 0xdeadbeefcafe;     // v3 carries the trace field anyway
  h.resume_offset = 4096;          // lane-relative resume survives
  h.flags |= core::kFlagResume;
  h.stripe->stripe_id = 2;
  h.stripe->chunk = 0;
  h.stripe->redundancy = 0;
  h.stripe->mode = core::StripeMode::kContiguous;
  h.stripe->range_lo = 2000000;
  h.payload_length = 1000000;

  std::vector<std::uint8_t> buf;
  core::encode_header(h, buf);
  EXPECT_EQ(buf[4], 3u);
  const auto d = core::decode_header(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->trace_id, h.trace_id);
  EXPECT_EQ(d->resume_offset, h.resume_offset);
  EXPECT_EQ(*d->stripe, *h.stripe);
}

// The gating bargain: an unstriped header must not grow — version 1 when
// untraced, version 2 when traced, never a stripe block.
TEST(StripeWire, UnstripedHeadersKeepV1V2Encoding) {
  core::SessionHeader h = striped_header();
  h.stripe.reset();
  std::vector<std::uint8_t> buf;
  core::encode_header(h, buf);
  EXPECT_EQ(buf[4], 1u);
  EXPECT_EQ(buf.size(), core::kFixedHeaderBytes + core::kBytesPerHop);

  h.trace_id = 99;
  std::vector<std::uint8_t> buf2;
  core::encode_header(h, buf2);
  EXPECT_EQ(buf2[4], 2u);
  EXPECT_EQ(buf2.size(), core::kFixedHeaderBytesV2 + core::kBytesPerHop);
}

TEST(StripeWire, StripeInfoValidity) {
  core::StripeInfo s;
  s.stripe_id = 0;
  s.stripe_count = 2;
  s.chunk = 4096;
  s.session_bytes = 1 << 20;
  EXPECT_TRUE(core::stripe_info_valid(s));

  core::StripeInfo bad = s;
  bad.stripe_count = 1;  // a 1-lane session is not striped
  EXPECT_FALSE(core::stripe_info_valid(bad));
  bad = s;
  bad.stripe_count = core::kMaxStripes + 1;
  EXPECT_FALSE(core::stripe_info_valid(bad));
  bad = s;
  bad.stripe_id = 2;  // id must be < count
  EXPECT_FALSE(core::stripe_info_valid(bad));
  bad = s;
  bad.redundancy = 2;  // redundancy must be < count
  EXPECT_FALSE(core::stripe_info_valid(bad));
  bad = s;
  bad.chunk = 0;  // round-robin needs an interleave unit
  EXPECT_FALSE(core::stripe_info_valid(bad));
  bad = s;
  bad.range_lo = 1;  // round-robin derives offsets; range_lo must be 0
  EXPECT_FALSE(core::stripe_info_valid(bad));

  core::StripeInfo c = s;
  c.mode = core::StripeMode::kContiguous;
  c.chunk = 0;
  c.range_lo = 1000;
  EXPECT_TRUE(core::stripe_info_valid(c));
  bad = c;
  bad.chunk = 4096;  // contiguous has nothing to interleave
  EXPECT_FALSE(core::stripe_info_valid(bad));
  bad = c;
  bad.redundancy = 1;  // redundancy requires interleaving
  EXPECT_FALSE(core::stripe_info_valid(bad));
  bad = c;
  bad.range_lo = bad.session_bytes + 1;  // lane starts past the stream
  EXPECT_FALSE(core::stripe_info_valid(bad));
}

/// Patch two big-endian bytes at `off` in an encoded header.
void patch_u16(std::vector<std::uint8_t>& buf, std::size_t off,
               std::uint16_t v) {
  buf[off] = static_cast<std::uint8_t>(v >> 8);
  buf[off + 1] = static_cast<std::uint8_t>(v);
}

TEST(StripeWire, MalformedStripeBlocksRejected) {
  std::vector<std::uint8_t> good;
  core::encode_header(striped_header(), good);
  ASSERT_TRUE(core::decode_header(good).has_value());

  // Offsets per PROTOCOL.md §2: id@48 count@50 chunk@52 redundancy@56
  // mode@57 reserved@58.
  auto buf = good;
  patch_u16(buf, 48, 3);  // stripe_id == count
  EXPECT_FALSE(core::decode_header(buf).has_value());

  buf = good;
  patch_u16(buf, 50, 1);  // count below the striped minimum
  EXPECT_FALSE(core::decode_header(buf).has_value());

  buf = good;
  patch_u16(buf, 50, core::kMaxStripes + 1);
  EXPECT_FALSE(core::decode_header(buf).has_value());

  buf = good;
  buf[56] = 3;  // redundancy >= count
  EXPECT_FALSE(core::decode_header(buf).has_value());

  buf = good;
  buf[57] = 7;  // unknown stripe mode
  EXPECT_FALSE(core::decode_header(buf).has_value());

  buf = good;
  patch_u16(buf, 58, 1);  // reserved bytes must stay zero
  EXPECT_FALSE(core::decode_header(buf).has_value());

  buf = good;
  std::memset(buf.data() + 52, 0, 4);  // round-robin with chunk == 0
  EXPECT_FALSE(core::decode_header(buf).has_value());

  buf = good;
  buf.resize(core::kFixedHeaderBytesV3 - 4);  // truncated mid-block
  EXPECT_FALSE(core::decode_header(buf).has_value());
}

// ---------------------------------------------------------------------------
// Plan and LaneCursor: the geometry both endpoints derive independently.

/// Union every lane's cursor-walked ranges into `cover`; returns the sum of
/// walked lengths (== coverage iff the lanes never overlap).
std::uint64_t walk_lanes(const stripe::StripePlan& plan,
                         util::IntervalSet& cover, std::uint64_t step) {
  std::uint64_t walked = 0;
  for (std::size_t j = 0; j < plan.lanes.size(); ++j) {
    stripe::LaneCursor cur(plan.lanes[j], plan.lane_bytes[j]);
    while (!cur.done()) {
      const auto r = cur.next(step);
      EXPECT_GT(r.length, 0u) << "cursor stalled on lane " << j;
      if (r.length == 0) break;
      cover.insert(r.global, r.global + r.length);
      walked += r.length;
    }
    EXPECT_EQ(cur.lane_position(), plan.lane_bytes[j]);
  }
  return walked;
}

TEST(StripePlan, RoundRobinPartitionsOddSizedStream) {
  // Deliberately not a multiple of chunk or count: the tail cell is short
  // and the last super-chunk is ragged.
  const std::uint64_t bytes = 1000003;
  const auto plan = stripe::StripePlan::round_robin(bytes, 4, 4096, 0);
  ASSERT_EQ(plan.lanes.size(), 4u);
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(plan.lane_bytes[j],
              stripe::round_robin_lane_bytes(plan.lanes[j]));
    sum += plan.lane_bytes[j];
  }
  EXPECT_EQ(sum, bytes);

  util::IntervalSet cover;
  const std::uint64_t walked = walk_lanes(plan, cover, 1000);
  EXPECT_EQ(walked, bytes);          // no lane overlap without redundancy
  EXPECT_EQ(cover.total(), bytes);   // and nothing missing
  EXPECT_EQ(cover.interval_count(), 1u);
}

TEST(StripePlan, RedundancySurvivesAnySingleLaneLoss) {
  const std::uint64_t bytes = 777777;
  const auto plan = stripe::StripePlan::round_robin(bytes, 3, 8192, 1);
  std::uint64_t sum = 0;
  for (const std::uint64_t b : plan.lane_bytes) sum += b;
  EXPECT_GT(sum, bytes);  // the loss-masking premium

  for (std::size_t dead = 0; dead < 3; ++dead) {
    util::IntervalSet cover;
    for (std::size_t j = 0; j < 3; ++j) {
      if (j == dead) continue;
      stripe::LaneCursor cur(plan.lanes[j], plan.lane_bytes[j]);
      while (!cur.done()) {
        const auto r = cur.next(4096);
        cover.insert(r.global, r.global + r.length);
      }
    }
    EXPECT_EQ(cover.total(), bytes) << "dead lane " << dead;
  }
}

// The restripe decision both striped sources make: do the surviving lanes
// still carry every logical stripe?
TEST(StripePlan, SurvivorsCoverOnlyWithinRedundancy) {
  const auto bare = stripe::StripePlan::round_robin(777777, 3, 8192, 0);
  EXPECT_TRUE(stripe::survivors_cover(bare, 0));
  for (std::uint32_t dead = 0; dead < 3; ++dead) {
    EXPECT_FALSE(stripe::survivors_cover(bare, 1u << dead)) << dead;
  }

  const auto masked = stripe::StripePlan::round_robin(777777, 3, 8192, 1);
  for (std::uint32_t dead = 0; dead < 3; ++dead) {
    EXPECT_TRUE(stripe::survivors_cover(masked, 1u << dead)) << dead;
  }
  // Two deaths leave one lane carrying two of the three stripes.
  EXPECT_FALSE(stripe::survivors_cover(masked, 0b011));
  EXPECT_FALSE(stripe::survivors_cover(masked, 0b101));

  const std::vector<double> weights = {1.0, 1.0};
  const auto weighted = stripe::StripePlan::weighted(4096, weights);
  EXPECT_TRUE(stripe::survivors_cover(weighted, 0));
  EXPECT_FALSE(stripe::survivors_cover(weighted, 0b10));
  // An unstriped session has no plan, so nothing covers for a lost lane.
  EXPECT_FALSE(stripe::survivors_cover(stripe::StripePlan{}, 0));
}

TEST(StripePlan, WeightedSplitsContiguouslyByWeight) {
  const std::uint64_t bytes = 10 * util::kMiB;
  const std::vector<double> weights = {1.0, 3.0};
  const auto plan = stripe::StripePlan::weighted(bytes, weights);
  ASSERT_EQ(plan.lanes.size(), 2u);
  EXPECT_EQ(plan.lanes[0].mode, core::StripeMode::kContiguous);
  EXPECT_EQ(plan.lane_bytes[0] + plan.lane_bytes[1], bytes);
  // Lane 1 gets ~3x lane 0's share.
  EXPECT_GT(plan.lane_bytes[1], 2 * plan.lane_bytes[0]);
  // Contiguous adjacency: lane 1 starts where lane 0 ends.
  EXPECT_EQ(plan.lanes[0].range_lo, 0u);
  EXPECT_EQ(plan.lanes[1].range_lo, plan.lane_bytes[0]);

  util::IntervalSet cover;
  const std::uint64_t walked = walk_lanes(plan, cover, 65536);
  EXPECT_EQ(walked, bytes);
  EXPECT_EQ(cover.total(), bytes);
}

TEST(StripePlan, CursorSkipMatchesConsumedWalk) {
  const auto plan = stripe::StripePlan::round_robin(500000, 3, 4096, 1);
  const core::StripeInfo& info = plan.lanes[1];
  const std::uint64_t total = plan.lane_bytes[1];
  for (const std::uint64_t skip : {std::uint64_t{1}, std::uint64_t{4095},
                                   std::uint64_t{4096}, std::uint64_t{70000},
                                   total - 1}) {
    stripe::LaneCursor a(info, total);
    a.skip(skip);
    stripe::LaneCursor b(info, total);
    std::uint64_t left = skip;
    while (left > 0) {
      const auto r = b.next(left);
      ASSERT_GT(r.length, 0u);
      left -= r.length;
    }
    // From here both cursors must yield identical range sequences.
    while (!a.done()) {
      const auto ra = a.next(3000);
      const auto rb = b.next(3000);
      EXPECT_EQ(ra.global, rb.global) << "skip=" << skip;
      EXPECT_EQ(ra.length, rb.length) << "skip=" << skip;
    }
    EXPECT_TRUE(b.done());
  }
}

// ---------------------------------------------------------------------------
// Reassembler: interleaved writers, duplicates, holes, frontier hashing.

/// Seeded content for global range [global, global+len).
std::vector<std::uint8_t> content_at(std::uint64_t seed, std::uint64_t global,
                                     std::uint64_t len) {
  core::PayloadGenerator gen(seed);
  gen.seek(global);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(len));
  gen.generate(out);
  return out;
}

TEST(StripeReassembler, InterleavedLanesMergeToCorrectDigest) {
  const std::uint64_t bytes = 300001;
  const std::uint64_t seed = 42;
  const auto plan = stripe::StripePlan::round_robin(bytes, 3, 4096, 0);
  stripe::Reassembler reasm({bytes, 3, nullptr});

  // Frontier bytes must arrive strictly in order and match the stream.
  std::uint64_t frontier_seen = 0;
  reasm.on_frontier = [&](std::uint64_t off,
                          std::span<const std::uint8_t> data) {
    EXPECT_EQ(off, frontier_seen);
    const auto want = content_at(seed, off, data.size());
    EXPECT_EQ(0, std::memcmp(want.data(), data.data(), data.size()));
    frontier_seen += data.size();
  };

  // Round-robin across the lanes in uneven bursts: every lane is mid-flight
  // at once, so the reassembler must buffer past the frontier.
  std::vector<stripe::LaneCursor> curs;
  for (std::size_t j = 0; j < 3; ++j) {
    curs.emplace_back(plan.lanes[j], plan.lane_bytes[j]);
  }
  std::uint64_t fresh = 0;
  bool more = true;
  std::size_t round = 0;
  while (more) {
    more = false;
    for (std::size_t j = 0; j < 3; ++j) {
      const std::uint64_t burst = 1000 + 777 * j + 13 * round;
      std::uint64_t left = burst;
      while (left > 0 && !curs[j].done()) {
        const auto r = curs[j].next(left);
        const auto data = content_at(seed, r.global, r.length);
        fresh += reasm.offer(plan.lanes[j].stripe_id, r.global, data);
        left -= r.length;
      }
      more = more || !curs[j].done();
    }
    ++round;
  }

  EXPECT_TRUE(reasm.complete());
  EXPECT_EQ(fresh, bytes);
  EXPECT_EQ(frontier_seen, bytes);
  EXPECT_EQ(reasm.duplicate_bytes(), 0u);
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
  EXPECT_EQ(reasm.holes_outstanding(), 0u);
  EXPECT_TRUE(reasm.digest() == core::stream_digest(seed, bytes));
}

TEST(StripeReassembler, DuplicatesAndOverlapsDroppedNotRehashed) {
  const std::uint64_t bytes = 10000;
  const std::uint64_t seed = 9;
  stripe::Reassembler reasm({bytes, 2, nullptr});

  const auto whole = content_at(seed, 0, bytes);
  const auto span_of = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::span<const std::uint8_t>(whole).subspan(
        static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo));
  };

  EXPECT_EQ(reasm.offer(0, 0, span_of(0, 4000)), 4000u);
  // Exact duplicate: all dropped.
  EXPECT_EQ(reasm.offer(1, 0, span_of(0, 4000)), 0u);
  EXPECT_EQ(reasm.duplicate_bytes(), 4000u);
  // Straddling overlap: only the fresh suffix lands.
  EXPECT_EQ(reasm.offer(1, 3000, span_of(3000, 6000)), 2000u);
  EXPECT_EQ(reasm.duplicate_bytes(), 5000u);
  // Overlap entirely beyond the frontier (buffered region duplicate).
  EXPECT_EQ(reasm.offer(0, 7000, span_of(7000, 9000)), 2000u);
  EXPECT_EQ(reasm.offer(1, 7000, span_of(7000, 9000)), 0u);
  EXPECT_EQ(reasm.duplicate_bytes(), 7000u);

  EXPECT_EQ(reasm.offer(0, 6000, span_of(6000, 7000)), 1000u);
  EXPECT_EQ(reasm.offer(1, 9000, span_of(9000, 10000)), 1000u);
  EXPECT_TRUE(reasm.complete());
  // Per-stripe accounting tracks each stripe's delivered coverage — the
  // overlapping re-deliveries count toward the delivering stripe's
  // progress even though the global merge dropped them.
  EXPECT_EQ(reasm.stripe_received(0), 7000u);
  EXPECT_EQ(reasm.stripe_received(1), 9000u);
  EXPECT_TRUE(reasm.digest() == core::stream_digest(seed, bytes));
}

TEST(StripeReassembler, DeadLaneLeavesHolesUntilRefilled) {
  const std::uint64_t bytes = 120000;
  const std::uint64_t seed = 5;
  const auto plan = stripe::StripePlan::round_robin(bytes, 3, 4096, 0);
  stripe::Reassembler reasm({bytes, 3, nullptr});

  const auto feed_lane = [&](std::size_t j) {
    stripe::LaneCursor cur(plan.lanes[j], plan.lane_bytes[j]);
    while (!cur.done()) {
      const auto r = cur.next(8192);
      reasm.offer(plan.lanes[j].stripe_id, r.global,
                  content_at(seed, r.global, r.length));
    }
  };
  feed_lane(0);
  feed_lane(2);
  EXPECT_FALSE(reasm.complete());
  // Lane 1's cells are the gaps between lanes 0 and 2's coverage.
  EXPECT_GT(reasm.holes_outstanding(), 0u);
  EXPECT_GT(reasm.buffered_bytes(), 0u);
  EXPECT_EQ(reasm.stripe_received(1), 0u);

  feed_lane(1);  // the re-striped replacement arrives
  EXPECT_TRUE(reasm.complete());
  EXPECT_EQ(reasm.holes_outstanding(), 0u);
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
  EXPECT_TRUE(reasm.digest() == core::stream_digest(seed, bytes));
}

// ---------------------------------------------------------------------------
// run_striped: the full simulator composition.

fault::FaultPlan plan_of(const std::string& spec) {
  std::string err;
  const auto plan = fault::parse_fault_spec(spec, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  return plan.value_or(fault::FaultPlan{});
}

exp::StripedParams base_params(std::uint16_t stripes, std::size_t paths) {
  exp::StripedParams p;
  p.paths = paths;
  p.stripes = stripes;
  p.bytes = 8 * util::kMiB;
  p.seed = 11;
  p.retry.base_delay = 100 * util::kMillisecond;
  p.retry.max_delay = util::kSecond;
  return p;
}

TEST(StripedRun, ThreeLanesDeliverAndVerify) {
  const exp::StripedResult r = exp::run_striped(base_params(3, 4));
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.lanes, 3u);
  EXPECT_EQ(r.stripes_lost, 0u);
  EXPECT_EQ(r.retransmitted_bytes, 0u);
  EXPECT_GT(r.mbps, 0.0);
}

TEST(StripedRun, WeightedPlanDeliversAndVerifies) {
  exp::StripedParams p = base_params(3, 3);
  p.weighted = true;
  const exp::StripedResult r = exp::run_striped(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.lanes, 3u);
}

// The acceptance scenario, sim half: a depot crash kills one lane
// mid-transfer; the driver re-stripes the lane's remainder onto a spare
// disjoint chain and the merged MD5 still checks out.
TEST(StripedRun, DepotCrashRestripesOntoSpareChain) {
  exp::StripedParams p = base_params(3, 4);  // one spare chain
  p.plan = plan_of("crash:depot=depot2,at_bytes=1048576");
  const exp::StripedResult r = exp::run_striped(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.stripes_lost, 1u);
  EXPECT_EQ(r.stripes_recovered, 1u);
  EXPECT_GE(r.attempts, 1u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GT(r.retransmitted_bytes, 0u);
  // The replacement lane must avoid the crashed depot.
  ASSERT_EQ(r.lane_routes.size(), 3u);
  for (const std::string& depot : r.lane_routes) {
    EXPECT_NE(depot, "depot2");
  }
}

// With redundancy 1 the surviving lanes already cover the dead lane's
// stripes: the crash costs zero retransmitted bytes (the issue's bar).
TEST(StripedRun, RedundancyAbsorbsCrashWithZeroRetransmit) {
  exp::StripedParams p = base_params(3, 3);  // no spare needed
  p.redundancy = 1;
  p.plan = plan_of("crash:depot=depot2,at_bytes=1048576");
  const exp::StripedResult r = exp::run_striped(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.stripes_lost, 1u);
  EXPECT_EQ(r.stripes_recovered, 0u);
  EXPECT_EQ(r.retransmitted_bytes, 0u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GT(r.duplicate_bytes, 0u);  // the premium the sink dropped
}

// Determinism: the same seed must export byte-identical stripe metrics,
// fault scripting and all — same contract as the chaos tier.
TEST(StripedRun, SameSeedExportsByteIdenticalMetrics) {
  const auto run_once = [](std::string* jsonl) -> exp::StripedResult {
    metrics::Registry reg;
    exp::StripedParams p;
    p.paths = 4;
    p.stripes = 3;
    p.bytes = 8 * util::kMiB;
    p.seed = 11;
    p.retry.base_delay = 100 * util::kMillisecond;
    p.plan = plan_of("crash:depot=depot2,at_bytes=1048576");
    p.metrics = &reg;
    const exp::StripedResult r = exp::run_striped(p);
    std::ostringstream out;
    metrics::write_jsonl(reg, out);
    *jsonl = out.str();
    EXPECT_GE(reg.counter("stripe.stripes_lost").value(), 1u);
    EXPECT_GE(reg.counter("stripe.stripes_recovered").value(), 1u);
    EXPECT_GE(reg.counter("stripe.bytes_merged").value(),
              8 * util::kMiB);
    return r;
  };
  std::string first, second;
  const exp::StripedResult a = run_once(&first);
  const exp::StripedResult b = run_once(&second);
  EXPECT_TRUE(a.completed && a.verified);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.retransmitted_bytes, b.retransmitted_bytes);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// stripes=1 is the degenerate unstriped chain: no v3 headers on the wire,
// same machinery otherwise.
TEST(StripedRun, SingleLaneDegeneratesToPlainChain) {
  const exp::StripedResult r = exp::run_striped(base_params(1, 2));
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.lanes, 1u);
}

// A striped source with no spare route (lsl_load's slots) gives a lost lane
// up at once: the policy has nowhere to move it, so it spends no backoff
// tick on waiting for one.
TEST(StripedLoss, NoSpareRouteGivesUpALostLaneAtOnce) {
  const std::uint64_t bytes = 1 * util::kMiB;
  util::Rng rng(3);
  core::LaneSet lanes(stripe::StripePlan::round_robin(bytes, 2, 64 * util::kKiB, 0),
                      bytes, core::SessionId::generate(rng), 3);
  fault::RoutePolicy policy(fault::RetryConfig{}, 3, /*candidates=*/{});
  ASSERT_EQ(lanes.lose(0, 0), core::LaneSet::Loss::kRestripe);
  const fault::Verdict v = policy.lost();
  EXPECT_EQ(v.kind, fault::Verdict::Kind::kGiveUp);
  EXPECT_EQ(v.delay, 0);
  EXPECT_EQ(v.error, fault::RerouteError::kNoCandidates);
  EXPECT_EQ(policy.attempts(), 0u);
}

// The degenerate lane has no merge to resume into: its replacement resends
// the stream from byte 0, and the sink verifies that connection whole.
TEST(StripedRun, SingleLaneCrashRecoversVerified) {
  exp::StripedParams p = base_params(1, 2);
  p.plan = plan_of("crash:depot=depot1,at_bytes=1048576");
  const exp::StripedResult r = exp::run_striped(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.stripes_lost, 1u);
  EXPECT_EQ(r.stripes_recovered, 1u);
  EXPECT_EQ(r.retransmitted_bytes, p.bytes);
}

}  // namespace
}  // namespace lsl
