// Unit tests of the LSL core types: session ids, the wire header codec,
// deterministic payload streams, the session directory, and the NWS-driven
// route selector.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lsl/directory.hpp"
#include "lsl/payload.hpp"
#include "lsl/selector.hpp"
#include "lsl/session_id.hpp"
#include "lsl/wire.hpp"
#include "util/rng.hpp"

namespace lsl::core {
namespace {

// --- SessionId ---------------------------------------------------------------

TEST(SessionId, DefaultIsInvalid) {
  SessionId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.hex(), std::string(32, '0'));
}

TEST(SessionId, GenerateIsValidAndDeterministicPerSeed) {
  util::Rng r1(5), r2(5);
  const SessionId a = SessionId::generate(r1);
  const SessionId b = SessionId::generate(r2);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, b);
  const SessionId c = SessionId::generate(r1);
  EXPECT_NE(a, c);
}

TEST(SessionId, HexRoundTrip) {
  util::Rng r(9);
  const SessionId a = SessionId::generate(r);
  const auto parsed = SessionId::from_hex(a.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(SessionId, FromHexRejectsMalformed) {
  EXPECT_FALSE(SessionId::from_hex("short").has_value());
  EXPECT_FALSE(SessionId::from_hex(std::string(32, 'g')).has_value());
  EXPECT_FALSE(SessionId::from_hex(std::string(33, '0')).has_value());
}

TEST(SessionId, SeedDiffersAcrossIds) {
  util::Rng r(1);
  const SessionId a = SessionId::generate(r);
  const SessionId b = SessionId::generate(r);
  EXPECT_NE(a.seed(), b.seed());
}

// --- wire codec --------------------------------------------------------------

SessionHeader sample_header(std::size_t hops) {
  SessionHeader h;
  util::Rng r(33);
  h.session = SessionId::generate(r);
  h.flags = kFlagDigestTrailer;
  h.payload_length = 123456789;
  for (std::size_t i = 0; i < hops; ++i) {
    h.hops.push_back({static_cast<std::uint32_t>(0x0a000001 + i),
                      static_cast<std::uint16_t>(4000 + i)});
  }
  h.destination = {0xc0a80101, 5001};
  return h;
}

TEST(Wire, EncodeDecodeRoundTrip) {
  for (std::size_t hops : {0u, 1u, 3u, 16u}) {
    const SessionHeader h = sample_header(hops);
    std::vector<std::uint8_t> buf;
    encode_header(h, buf);
    EXPECT_EQ(buf.size(), h.encoded_size());

    const auto len = header_length(buf);
    ASSERT_TRUE(len.has_value());
    EXPECT_EQ(*len, buf.size());

    const auto d = decode_header(buf);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->session, h.session);
    EXPECT_EQ(d->flags, h.flags);
    EXPECT_EQ(d->payload_length, h.payload_length);
    EXPECT_EQ(d->hops, h.hops);
    EXPECT_EQ(d->destination, h.destination);
  }
}

TEST(Wire, TooManyHopsRejected) {
  SessionHeader h = sample_header(kMaxHops + 1);
  std::vector<std::uint8_t> buf;
  EXPECT_THROW(encode_header(h, buf), std::length_error);
}

TEST(Wire, MalformedPrefixRejected) {
  std::vector<std::uint8_t> buf;
  encode_header(sample_header(1), buf);
  buf[0] = 'X';  // break magic
  EXPECT_FALSE(header_length(buf).has_value());
  EXPECT_FALSE(decode_header(buf).has_value());

  std::vector<std::uint8_t> buf2;
  encode_header(sample_header(1), buf2);
  buf2[4] = 99;  // bad version
  EXPECT_FALSE(header_length(buf2).has_value());
}

TEST(Wire, TruncatedBufferRejected) {
  std::vector<std::uint8_t> buf;
  encode_header(sample_header(2), buf);
  buf.resize(buf.size() - 1);
  EXPECT_FALSE(decode_header(buf).has_value());
  EXPECT_FALSE(header_length(std::span<const std::uint8_t>(buf.data(), 4))
                   .has_value());
}

TEST(Wire, PoppedRemovesFirstHop) {
  const SessionHeader h = sample_header(2);
  EXPECT_EQ(h.next_hop(), h.hops[0]);
  const SessionHeader p = h.popped();
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_EQ(p.hops[0], h.hops[1]);
  EXPECT_EQ(p.popped().next_hop(), h.destination);
  EXPECT_EQ(p.popped().popped().hops.size(), 0u);  // popping empty is safe
}

// --- payload generator / verifier --------------------------------------------

TEST(Payload, DeterministicAndChunkingInvariant) {
  PayloadGenerator a(77), b(77);
  std::vector<std::uint8_t> whole(10000);
  a.generate(whole);

  std::vector<std::uint8_t> pieces(10000);
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 7u, 100u, 63u, 9829u}) {
    b.generate(std::span<std::uint8_t>(pieces.data() + off, chunk));
    off += chunk;
  }
  ASSERT_EQ(off, pieces.size());
  EXPECT_EQ(whole, pieces);
}

TEST(Payload, DifferentSeedsDiffer) {
  PayloadGenerator a(1), b(2);
  std::vector<std::uint8_t> x(256), y(256);
  a.generate(x);
  b.generate(y);
  EXPECT_NE(x, y);
}

TEST(Payload, VerifierAcceptsCorrectStream) {
  PayloadGenerator gen(5);
  PayloadVerifier ver(5);
  std::vector<std::uint8_t> buf(4096);
  for (int i = 0; i < 10; ++i) {
    gen.generate(buf);
    EXPECT_TRUE(ver.feed(buf));
  }
  EXPECT_TRUE(ver.ok());
  EXPECT_EQ(ver.verified_bytes(), 40960u);
  EXPECT_EQ(ver.digest(), stream_digest(5, 40960));
}

TEST(Payload, VerifierDetectsSingleBitFlip) {
  PayloadGenerator gen(6);
  PayloadVerifier ver(6);
  std::vector<std::uint8_t> buf(1000);
  gen.generate(buf);
  buf[500] ^= 1;
  EXPECT_FALSE(ver.feed(buf));
  EXPECT_FALSE(ver.ok());
}

TEST(PayloadCheck, FlipInLastByteOfChunkLargerThanItsBlockIsRejected) {
  // The compare walks the chunk in fixed-size blocks; the flip sits in the
  // final, partial one.
  std::vector<std::uint8_t> buf(3 * 4096 + 123);
  PayloadGenerator(8).generate(buf);
  buf.back() ^= 0x80;
  PayloadCheck check(8);
  EXPECT_FALSE(check.feed(buf));
  EXPECT_FALSE(check.ok());
  PayloadVerifier ver(8);
  EXPECT_FALSE(ver.feed(buf));
  EXPECT_FALSE(ver.ok());
}

TEST(Payload, StreamDigestMatchesIncrementalHash) {
  PayloadGenerator gen(123);
  md5::Md5 h;
  std::vector<std::uint8_t> buf(777);
  std::uint64_t total = 5 * 777;
  for (int i = 0; i < 5; ++i) {
    gen.generate(buf);
    h.update(buf);
  }
  EXPECT_EQ(h.finalize(), stream_digest(123, total));
}

// --- directory ---------------------------------------------------------------

TEST(Directory, PublishConsumeOnce) {
  SessionDirectory dir;
  const sim::Endpoint ep{3, 1234};
  dir.publish(ep, sample_header(1));
  EXPECT_EQ(dir.size(), 1u);
  const auto h = dir.consume(ep);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->payload_length, 123456789u);
  EXPECT_FALSE(dir.consume(ep).has_value());
}

// --- selector ----------------------------------------------------------------

TEST(Selector, UnknownRoutePredictsInfinity) {
  PathDatabase db;
  RouteSelector sel(db);
  const CandidateRoute r{{"a", "b"}};
  EXPECT_TRUE(std::isinf(sel.predict_transfer_seconds(r, 1 << 20)));
}

TEST(Selector, PredictionScalesWithSize) {
  PathDatabase db;
  db.observe_rtt_ms("a", "b", 50);
  db.observe_bandwidth_mbps("a", "b", 10);
  RouteSelector sel(db);
  const CandidateRoute r{{"a", "b"}};
  const double t1 = sel.predict_transfer_seconds(r, 1 * 1024 * 1024);
  const double t64 = sel.predict_transfer_seconds(r, 64 * 1024 * 1024);
  EXPECT_GT(t64, t1 * 30);
}

TEST(Selector, MathisLimitCapsLossyPath) {
  PathDatabase db;
  db.observe_rtt_ms("a", "b", 60);
  db.observe_bandwidth_mbps("a", "b", 100);
  db.observe_loss_rate("a", "b", 1e-3);
  RouteSelector sel(db);
  // Mathis: ~1448*8/0.06 * sqrt(1.5/1e-3) / 1e6 ~ 7.5 Mbit/s << 100.
  const double rate = sel.sublink_rate_mbps("a", "b");
  EXPECT_LT(rate, 10.0);
  EXPECT_GT(rate, 5.0);
}

TEST(Selector, ChoosesCascadeWhenSublinksAreFaster) {
  PathDatabase db;
  // Direct: 60 ms, lossy -> Mathis-capped.
  db.observe_rtt_ms("src", "dst", 60);
  db.observe_bandwidth_mbps("src", "dst", 50);
  db.observe_loss_rate("src", "dst", 5e-4);
  // Sublinks: ~30 ms each, half the loss each.
  for (const auto& [a, b] : {std::pair{"src", "depot"}, {"depot", "dst"}}) {
    db.observe_rtt_ms(a, b, 31);
    db.observe_bandwidth_mbps(a, b, 50);
    db.observe_loss_rate(a, b, 2.5e-4);
  }
  RouteSelector sel(db);
  const std::vector<CandidateRoute> candidates = {
      {{"src", "dst"}}, {{"src", "depot", "dst"}}};
  const auto& best = sel.choose(candidates, 64ull << 20);
  EXPECT_EQ(best.waypoints.size(), 3u);
  // For a tiny transfer, the extra handshake should favour direct.
  const auto& small = sel.choose(candidates, 2 << 10);
  EXPECT_EQ(small.waypoints.size(), 2u);
}

TEST(Selector, DescribeFormatsRoute) {
  const CandidateRoute r{{"a", "b", "c"}};
  EXPECT_EQ(r.describe(), "a -> b -> c");
  EXPECT_EQ(r.sublink_count(), 2u);
}


// --- wire fuzz ---------------------------------------------------------------

/// Property: decode_header / header_length never crash or accept garbage on
/// randomly mutated or random inputs.
class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, RandomAndMutatedInputsHandledSafely) {
  util::Rng rng(GetParam());

  // Purely random buffers: decode must reject (magic mismatch is
  // overwhelmingly likely) and, crucially, never read out of bounds.
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> buf(rng.uniform_int(0, 128));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    (void)header_length(buf);
    (void)decode_header(buf);
  }

  // Mutated valid headers: either rejected or decoded into a header that
  // re-encodes without crashing.
  for (int i = 0; i < 200; ++i) {
    SessionHeader h = sample_header(rng.uniform_int(0, 3));
    std::vector<std::uint8_t> buf;
    encode_header(h, buf);
    const auto idx = rng.uniform_int(0, buf.size() - 1);
    buf[idx] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    const auto decoded = decode_header(buf);
    if (decoded) {
      std::vector<std::uint8_t> re;
      encode_header(*decoded, re);
      EXPECT_EQ(re.size(), decoded->encoded_size());
    }
  }

  // Truncations of a valid header at every length: never accepted, never
  // crash.
  SessionHeader h = sample_header(2);
  std::vector<std::uint8_t> buf;
  encode_header(h, buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const std::span<const std::uint8_t> prefix(buf.data(), len);
    EXPECT_FALSE(decode_header(prefix).has_value()) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(101, 202, 303));

TEST(Wire, HeaderLengthNeedsFullPrefixAndBoundsHopCount) {
  std::vector<std::uint8_t> buf;
  encode_header(sample_header(2), buf);
  // Every prefix shorter than kHeaderPrefixBytes is undecidable.
  for (std::size_t len = 0; len < kHeaderPrefixBytes; ++len) {
    EXPECT_FALSE(
        header_length(std::span<const std::uint8_t>(buf.data(), len))
            .has_value())
        << "len=" << len;
  }
  // At exactly the prefix the length is known and matches the documented
  // formula.
  const auto len = header_length(
      std::span<const std::uint8_t>(buf.data(), kHeaderPrefixBytes));
  ASSERT_TRUE(len.has_value());
  EXPECT_EQ(*len, kFixedHeaderBytes + 2 * kBytesPerHop);

  // A hop count beyond kMaxHops in the wire image is rejected outright,
  // even though the field could encode it.
  buf[6] = 0;
  buf[7] = kMaxHops + 1;
  EXPECT_FALSE(header_length(buf).has_value());
  EXPECT_FALSE(decode_header(buf).has_value());
  // The boundary value itself is structurally fine (the buffer is now too
  // short for 17 hops, so decode fails, but length succeeds).
  buf[7] = kMaxHops;
  EXPECT_TRUE(header_length(buf).has_value());
}

TEST(Wire, DecodedGarbageFlagsSurviveReencode) {
  // Any flags byte must round-trip: decode does not validate semantic
  // exclusivity (that is the depot's job), so the codec has to be lossless
  // for all 256 values.
  for (int flags = 0; flags < 256; ++flags) {
    SessionHeader h = sample_header(1);
    h.flags = static_cast<std::uint8_t>(flags);
    std::vector<std::uint8_t> buf;
    encode_header(h, buf);
    const auto d = decode_header(buf);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->flags, h.flags);
    std::vector<std::uint8_t> re;
    encode_header(*d, re);
    EXPECT_EQ(re, buf);
  }
}

TEST(Wire, ResumeFieldsRoundTrip) {
  SessionHeader h = sample_header(1);
  h.flags |= kFlagResume;
  h.resume_offset = 0x0123456789abcdefull;
  std::vector<std::uint8_t> buf;
  encode_header(h, buf);
  const auto d = decode_header(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->is_resume());
  EXPECT_EQ(d->resume_offset, h.resume_offset);
}

TEST(Payload, DigestOnlyVerifierIgnoresContent) {
  PayloadVerifier v(/*seed=*/1, /*check_content=*/false);
  std::vector<std::uint8_t> junk(1000, 0xab);
  EXPECT_TRUE(v.feed(junk));
  EXPECT_TRUE(v.ok());
  // The digest still reflects exactly the fed bytes.
  EXPECT_EQ(v.digest(), md5::compute(std::span<const std::uint8_t>(
                            junk.data(), junk.size())));
}

}  // namespace
}  // namespace lsl::core
