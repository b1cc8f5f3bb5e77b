// Integration tests of the real-socket substrate: the lsd daemon relaying
// LSL sessions over loopback TCP, single- and multi-depot cascades, MD5
// end-to-end verification, and failure injection. Everything runs in one
// process on one epoll loop.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "lsl/payload.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
#include "posix/lsd.hpp"
#include "posix/socket_util.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

using engine::EpollEngine;
using posix::InetAddress;
using posix::Lsd;
using posix::LsdConfig;
using posix::PosixSinkServer;
using posix::PosixSource;
using posix::PosixSourceConfig;
using posix::SinkResult;

/// Drive the loop until `done` or the wall deadline passes.
bool drive(EpollEngine& loop, const bool& done, double timeout_s = 20.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  return done;
}

/// True when loopback sockets are available in this environment.
bool loopback_available() {
  try {
    EpollEngine loop;
    PosixSinkServer probe(loop, InetAddress::loopback(0), false, 1);
    return probe.port() != 0;
  } catch (const std::exception&) {
    return false;
  }
}

#define REQUIRE_LOOPBACK()                                       \
  if (!loopback_available()) {                                   \
    GTEST_SKIP() << "loopback sockets unavailable in sandbox";   \
  }

/// The four failure reasons must partition sessions_failed.
void expect_fail_breakdown_consistent(const posix::LsdStats& s) {
  EXPECT_EQ(s.fail_dial + s.fail_header + s.fail_peer_reset + s.fail_other,
            s.sessions_failed);
}

/// Connect a raw TCP socket to `port` and wait for the handshake.
engine::Fd raw_connect(EpollEngine& loop, std::uint16_t port) {
  engine::Fd conn = posix::connect_tcp(InetAddress::loopback(port));
  if (!conn.valid()) return conn;
  bool writable = false;
  loop.add(conn.get(), EPOLLOUT, [&](std::uint32_t) { writable = true; });
  drive(loop, writable, 5.0);
  loop.remove(conn.get());
  if (!writable || posix::connect_result(conn.get()) != 0) conn.reset();
  return conn;
}

TEST(PosixRelay, DirectSessionWithDigestVerifies) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 42);

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 1 * util::kMiB;
  cfg.payload_seed = 42;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.payload_bytes, 1 * util::kMiB);
  ASSERT_TRUE(result.header.has_value());
  EXPECT_TRUE(result.header->has_digest());
  EXPECT_TRUE(result.header->hops.empty());
}

TEST(PosixRelay, SingleDepotRelayVerifies) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 7);
  Lsd depot(loop, LsdConfig{});

  metrics::Registry reg;
  metrics::LoopMetrics loop_m(reg, "loop.test");
  metrics::LsdMetrics depot_m(reg, "lsd.1");
  loop.set_metrics(&loop_m);
  depot.set_metrics(&depot_m);

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 2 * util::kMiB;
  cfg.payload_seed = 7;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.payload_bytes, 2 * util::kMiB);
  EXPECT_EQ(depot.stats().sessions_accepted, 1u);
  EXPECT_GE(depot.stats().bytes_relayed, 2 * util::kMiB);

  // The sink finishing races the depot relaying the status byte back to the
  // source; keep driving until the depot sees the session through.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (depot.stats().sessions_completed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  ASSERT_EQ(depot.stats().sessions_completed, 1u);

  // Live instruments track the daemon's own counters.
  EXPECT_EQ(depot_m.bytes_relayed->value(), depot.stats().bytes_relayed);
  EXPECT_EQ(depot_m.accept_to_dial_ms->count(), 1u);
  EXPECT_GT(depot_m.bytes_reverse->value(), 0u);  // the status byte
  EXPECT_GT(loop_m.iterations->value(), 0u);
  EXPECT_GE(loop_m.events_dispatched->value(), loop_m.dispatch_ms->count());
}

TEST(PosixRelay, ThreeDepotCascadeVerifies) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 99);
  Lsd d1(loop, LsdConfig{});
  Lsd d2(loop, LsdConfig{});
  Lsd d3(loop, LsdConfig{});

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(d1.port()),
               InetAddress::loopback(d2.port()),
               InetAddress::loopback(d3.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 512 * util::kKiB;
  cfg.payload_seed = 99;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(d1.stats().sessions_accepted, 1u);
  EXPECT_EQ(d2.stats().sessions_accepted, 1u);
  EXPECT_EQ(d3.stats().sessions_accepted, 1u);
}

TEST(PosixRelay, CorruptedPayloadFailsDigest) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 5);
  Lsd depot(loop, LsdConfig{});

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 256 * util::kKiB;
  cfg.payload_seed = 5;
  cfg.corrupt_one_byte = true;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_FALSE(result.verified);
  EXPECT_EQ(result.payload_bytes, 256 * util::kKiB);  // all bytes arrived
}

TEST(PosixRelay, TinyBufferDepotStillRelaysCorrectly) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 3);
  LsdConfig dcfg;
  dcfg.buffer_bytes = 4096;  // aggressive backpressure
  Lsd depot(loop, dcfg);

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 1 * util::kMiB;
  cfg.payload_seed = 3;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done, 30.0));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.payload_bytes, 1 * util::kMiB);
}

TEST(PosixRelay, DepotToDeadNextHopFailsSession) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  Lsd depot(loop, LsdConfig{});

  bool done = false;
  bool ok = true;
  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(1);  // nothing listens on port 1
  cfg.payload_bytes = 64 * util::kKiB;
  PosixSource src(loop, cfg);
  src.on_done = [&](bool r) {
    ok = r;
    done = true;
  };
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_FALSE(ok);
  EXPECT_EQ(depot.stats().sessions_failed, 1u);
  EXPECT_EQ(depot.stats().fail_dial, 1u);
  expect_fail_breakdown_consistent(depot.stats());
}

TEST(PosixRelay, MalformedHeaderClassifiedAsHeaderFailure) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  Lsd depot(loop, LsdConfig{});

  engine::Fd conn = raw_connect(loop, depot.port());
  ASSERT_TRUE(conn.valid());
  const std::uint8_t junk[16] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(conn.get(), junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (depot.stats().sessions_failed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  EXPECT_EQ(depot.stats().sessions_failed, 1u);
  EXPECT_EQ(depot.stats().fail_header, 1u);
  EXPECT_EQ(depot.stats().fail_dial, 0u);
  expect_fail_breakdown_consistent(depot.stats());
}

TEST(PosixRelay, TruncatedHeaderClassifiedAsHeaderFailure) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  Lsd depot(loop, LsdConfig{});

  // A valid header prefix is 8 bytes; send 4 and close cleanly — the depot
  // sees EOF mid-header (a truncated session).
  engine::Fd conn = raw_connect(loop, depot.port());
  ASSERT_TRUE(conn.valid());
  const std::uint8_t partial[4] = {0x4C, 0x53, 0x4C, 0x31};
  ASSERT_EQ(::send(conn.get(), partial, sizeof(partial), 0), 4);
  conn.reset();  // clean FIN

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (depot.stats().sessions_failed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  EXPECT_EQ(depot.stats().sessions_failed, 1u);
  EXPECT_EQ(depot.stats().fail_header, 1u);
  expect_fail_breakdown_consistent(depot.stats());
}

// A v2 header whose trace id is zero has a valid length but does not
// decode. The sink must refuse it, not read it as a headerless raw stream
// and acknowledge whatever follows — digest-only mode (the lsl_recv
// default) has no content check to catch that.
TEST(PosixRelay, SinkRefusesUndecodableHeader) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 31,
                       /*verify_content=*/false);
  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  core::SessionHeader h;
  util::Rng rng(31);
  h.session = core::SessionId::generate(rng);
  h.trace_id = 1;  // encodes as version 2 ...
  h.payload_length = 4;
  h.destination = {0x7f000001, sink.port()};
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);
  std::fill_n(wire.begin() + 40, core::kTraceIdBytes, 0);  // ... id 0
  wire.insert(wire.end(), 4, 0xab);

  engine::Fd conn = raw_connect(loop, sink.port());
  ASSERT_TRUE(conn.valid());
  ASSERT_EQ(::send(conn.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ::shutdown(conn.get(), SHUT_WR);

  ASSERT_TRUE(drive(loop, done, 5.0));
  EXPECT_FALSE(result.verified);
  EXPECT_FALSE(result.header.has_value());
  std::uint8_t status = 0;
  ASSERT_EQ(::recv(conn.get(), &status, 1, 0), 1);
  EXPECT_EQ(status, core::kStatusFail);
}

TEST(PosixRelay, UpstreamResetClassifiedAsPeerReset) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  Lsd depot(loop, LsdConfig{});
  metrics::Registry reg;
  metrics::LsdMetrics m(reg, "lsd.1");
  depot.set_metrics(&m);

  // Abort the connection (SO_LINGER 0 close sends RST instead of FIN): the
  // depot's read fails with ECONNRESET mid-header.
  engine::Fd conn = raw_connect(loop, depot.port());
  ASSERT_TRUE(conn.valid());
  const linger lg{1, 0};
  ASSERT_EQ(::setsockopt(conn.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)),
            0);
  conn.reset();  // RST

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (depot.stats().sessions_failed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  EXPECT_EQ(depot.stats().sessions_failed, 1u);
  EXPECT_EQ(depot.stats().fail_peer_reset, 1u);
  EXPECT_EQ(m.read_errors->value(), 1u);
  expect_fail_breakdown_consistent(depot.stats());
}

TEST(PosixRelay, ZeroByteSessionCompletes) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 11);
  Lsd depot(loop, LsdConfig{});

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 0;
  cfg.payload_seed = 11;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.payload_bytes, 0u);
}

TEST(PosixRelay, ConcurrentSessionsThroughOneDepot) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 21);
  Lsd depot(loop, LsdConfig{});

  int completed = 0;
  int verified = 0;
  sink.on_complete = [&](const SinkResult& r) {
    ++completed;
    if (r.verified) ++verified;
  };

  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<PosixSource>> sources;
  for (int i = 0; i < kSessions; ++i) {
    PosixSourceConfig cfg;
    cfg.route = {InetAddress::loopback(depot.port())};
    cfg.destination = InetAddress::loopback(sink.port());
    cfg.payload_bytes = 256 * util::kKiB;
    cfg.payload_seed = 21;  // sink verifies against one seed; same for all
    sources.push_back(std::make_unique<PosixSource>(loop, cfg));
    sources.back()->start();
  }

  bool done = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed < kSessions &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  done = completed == kSessions;
  ASSERT_TRUE(done);
  EXPECT_EQ(verified, kSessions);
  EXPECT_EQ(depot.stats().sessions_accepted,
            static_cast<std::uint64_t>(kSessions));
}


// A raw client's whole session on the wire: header, payload, digest
// trailer, written without an event loop as far as the socket takes it.
struct RawSession {
  engine::Fd conn;
  std::vector<std::uint8_t> wire;
  std::size_t sent = 0;

  /// Write what the socket accepts now; half-close once everything is out.
  void push() {
    while (sent < wire.size()) {
      const long n =
          posix::write_some(conn.get(), wire.data() + sent, wire.size() - sent);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
    ::shutdown(conn.get(), SHUT_WR);
  }
};

// The sink makes one payload read per readiness callback: with two
// sessions' bytes queued, one loop turn reads at most one chunk of each
// instead of draining the first socket while the second waits.
TEST(PosixRelay, SinkReadsOnePayloadChunkPerReadinessCallback) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  constexpr std::uint64_t kSeed = 61;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, kSeed);
  int verified = 0;
  int completed = 0;
  sink.on_complete = [&](const SinkResult& r) {
    ++completed;
    if (r.verified) ++verified;
  };

  constexpr std::uint64_t kPayload = 512 * util::kKiB;
  std::vector<std::uint8_t> payload(kPayload);
  core::PayloadGenerator(kSeed).generate(payload);
  const md5::Digest digest = core::stream_digest(kSeed, kPayload);
  util::Rng rng(61);
  RawSession sessions[2];
  for (RawSession& r : sessions) {
    core::SessionHeader h;
    h.session = core::SessionId::generate(rng);
    h.flags = core::kFlagDigestTrailer;
    h.payload_length = kPayload;
    h.destination = {0x7f000001, sink.port()};
    core::encode_header(h, r.wire);
    r.wire.insert(r.wire.end(), payload.begin(), payload.end());
    r.wire.insert(r.wire.end(), digest.bytes.begin(), digest.bytes.end());
    r.conn = raw_connect(loop, sink.port());
    ASSERT_TRUE(r.conn.valid());
  }
  // Let the sink accept both before any byte is sent.
  for (int i = 0; i < 5; ++i) loop.run_once(20);
  ASSERT_EQ(sink.bytes_received(), 0u);
  for (RawSession& r : sessions) {
    r.push();
    ASSERT_GE(r.sent, 256 * util::kKiB);
  }

  loop.run_once();
  EXPECT_GT(sink.bytes_received(), 0u);
  EXPECT_LE(sink.bytes_received(), 2 * core::kSinkReadBytes);

  for (RawSession& r : sessions) {
    if (r.sent == r.wire.size()) continue;
    loop.add(r.conn.get(), EPOLLOUT, [&r, &loop](std::uint32_t) {
      r.push();
      if (r.sent == r.wire.size()) loop.remove(r.conn.get());
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (completed < 2 && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  ASSERT_EQ(completed, 2);
  EXPECT_EQ(verified, 2);
  for (RawSession& r : sessions) {
    std::uint8_t status = 0;
    ASSERT_EQ(::recv(r.conn.get(), &status, 1, 0), 1);
    EXPECT_EQ(status, core::kStatusOk);
  }
}

TEST(PosixRelay, DigestOnlyModeAcceptsForeignContent) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  // Sink seeded differently from the source: content comparison would fail,
  // but in digest-only mode (verify_content = false) the MD5 trailer is the
  // authority and it matches the bytes actually sent.
  PosixSinkServer sink(loop, InetAddress::loopback(0), true,
                       /*payload_seed=*/999, /*verify_content=*/false);
  Lsd depot(loop, LsdConfig{});

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 512 * util::kKiB;
  cfg.payload_seed = 5;  // != sink seed
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_TRUE(result.verified);

  // Control: with content verification on, the same mismatch is caught.
  bool done2 = false;
  SinkResult result2;
  PosixSinkServer strict(loop, InetAddress::loopback(0), true, 999, true);
  strict.on_complete = [&](const SinkResult& r) {
    result2 = r;
    done2 = true;
  };
  PosixSourceConfig cfg2 = cfg;
  cfg2.route.clear();
  cfg2.destination = InetAddress::loopback(strict.port());
  PosixSource src2(loop, cfg2);
  src2.start();
  ASSERT_TRUE(drive(loop, done2));
  EXPECT_FALSE(result2.verified);
}

}  // namespace
}  // namespace lsl::test
