// Integration tests of the real-socket substrate: the lsd daemon relaying
// LSL sessions over loopback TCP, single- and multi-depot cascades, MD5
// end-to-end verification, and failure injection. Everything runs in one
// process; the sink verifies on its own thread and reports to the test's
// loop.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "lsl/payload.hpp"
#include "lsl/session_id.hpp"
#include "lsl/source_core.hpp"
#include "lsl/wire.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
#include "posix/lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix_test_util.hpp"
#include "stripe/plan.hpp"
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

// A caller may name the session before starting it: the id is the plan's
// from construction on, not the all-zero id until the first dial.
TEST(PosixRelay, SourceNamesItsSessionBeforeStart) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 42);
  bool done = false;
  sink.on_complete = [&](const SinkResult&) { done = true; };

  PosixSourceConfig cfg;
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 64 * util::kKiB;
  cfg.payload_seed = 42;
  PosixSource src(loop, cfg);
  const core::SessionId before = src.session();
  EXPECT_TRUE(before.valid()) << before.hex();
  EXPECT_EQ(before, posix::seeded_session(42));
  src.start();
  EXPECT_EQ(src.session(), before);
  ASSERT_TRUE(drive(loop, done));
  EXPECT_EQ(src.session(), before);
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
  core::SessionId id;
  engine::Fd conn;
  std::vector<std::uint8_t> wire;
  std::size_t sent = 0;

  /// Write what the socket accepts now, up to `limit` wire bytes;
  /// half-close once everything is out.
  void push(std::size_t limit = SIZE_MAX) {
    limit = std::min(limit, wire.size());
    while (sent < limit) {
      const long n = posix::write_some(conn.get(), wire.data() + sent,
                                       limit - sent);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
    if (sent == wire.size()) ::shutdown(conn.get(), SHUT_WR);
  }
};

/// A digest-trailed session of `payload` seeded with `seed`; returns the
/// header's length on the wire.
std::size_t make_session(RawSession& r, util::Rng& rng, std::uint16_t port,
                         const std::vector<std::uint8_t>& payload,
                         std::uint64_t seed) {
  core::SessionHeader h;
  h.session = r.id = core::SessionId::generate(rng);
  h.flags = core::kFlagDigestTrailer;
  h.payload_length = payload.size();
  h.destination = {0x7f000001, port};
  core::encode_header(h, r.wire);
  const std::size_t header_len = r.wire.size();
  const md5::Digest digest = core::stream_digest(seed, payload.size());
  r.wire.insert(r.wire.end(), payload.begin(), payload.end());
  r.wire.insert(r.wire.end(), digest.bytes.begin(), digest.bytes.end());
  return header_len;
}

/// Descriptors this process holds open.
std::size_t open_fds() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator{}));
}

// Two concurrent verifying sessions are hashed mostly in two-lane MD5
// passes: the sink makes one payload read per readiness callback, so two
// streams with bytes queued take turns and the core pairs their chunks.
TEST(PosixRelay, ConcurrentSessionsHashMostlyInPairs) {
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
  util::Rng rng(61);
  RawSession sessions[2];
  std::size_t header_len = 0;
  for (RawSession& r : sessions) {
    header_len = make_session(r, rng, sink.port(), payload, kSeed);
    r.conn = raw_connect(loop, sink.port());
    ASSERT_TRUE(r.conn.valid());
  }
  // Both headers first, so both streams verify before a payload byte comes.
  for (RawSession& r : sessions) r.push(header_len);
  for (int i = 0; i < 5; ++i) loop.run_once(20);
  ASSERT_EQ(sink.bytes_received(), 0u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto in_time = [&] {
    return std::chrono::steady_clock::now() < deadline;
  };
  // Both payloads as fast as the sockets take them, in alternating 16 KiB
  // slices: the writes outrun the hashing, so both streams have bytes
  // queued, and a sink that drained one socket before reading the other
  // would hash them one stream at a time.
  while ((sessions[0].sent < sessions[0].wire.size() ||
          sessions[1].sent < sessions[1].wire.size()) &&
         in_time()) {
    const std::size_t before = sessions[0].sent + sessions[1].sent;
    for (RawSession& r : sessions) r.push(r.sent + 16 * util::kKiB);
    if (sessions[0].sent + sessions[1].sent == before) loop.run_once(1);
  }
  while (completed < 2 && in_time()) loop.run_once(50);
  ASSERT_EQ(completed, 2);
  EXPECT_EQ(verified, 2);
  const std::uint64_t paired = sink.paired_bytes();
  EXPECT_GT(paired, kPayload) << "of " << 2 * kPayload << " payload bytes";
  for (RawSession& r : sessions) {
    std::uint8_t status = 0;
    ASSERT_EQ(::recv(r.conn.get(), &status, 1, 0), 1);
    EXPECT_EQ(status, core::kStatusOk);
  }
}

// The owner runs on_complete before it writes a status byte: a raw client
// watching its socket on the owner loop finds its session counted by the
// time the status is readable.
TEST(PosixRelay, StatusByteIsNeverReadableBeforeOnComplete) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  constexpr std::uint64_t kSeed = 67;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, kSeed);
  std::set<core::SessionId> counted;
  sink.on_complete = [&](const SinkResult& r) {
    ASSERT_TRUE(r.header.has_value());
    counted.insert(r.header->session);
  };

  std::vector<std::uint8_t> payload(16 * util::kKiB);
  core::PayloadGenerator(kSeed).generate(payload);
  util::Rng rng(67);
  constexpr int kSessions = 8;
  RawSession sessions[kSessions];
  int statuses = 0;
  int counted_first = 0;
  for (RawSession& r : sessions) {
    make_session(r, rng, sink.port(), payload, kSeed);
    r.conn = raw_connect(loop, sink.port());
    ASSERT_TRUE(r.conn.valid());
  }
  for (RawSession& r : sessions) {
    loop.add(r.conn.get(), EPOLLIN, [&, fd = r.conn.get(), id = r.id](
                                        std::uint32_t) {
      std::uint8_t status = 0;
      if (::recv(fd, &status, 1, 0) != 1) return;
      EXPECT_EQ(status, core::kStatusOk);
      ++statuses;
      if (counted.contains(id)) ++counted_first;
      loop.remove(fd);
    });
    r.push();
    ASSERT_EQ(r.sent, r.wire.size());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (statuses < kSessions &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  ASSERT_EQ(statuses, kSessions);
  EXPECT_EQ(counted_first, kSessions);
}

// Destroying the sink mid-payload, with a verdict still queued for the
// owner loop, joins its thread promptly and closes every descriptor it
// held: the listener, its loop's, the connections and the queued
// verdict's. Neither client gets a status byte.
TEST(PosixRelay, SinkDestroyedWithAVerdictQueuedLeaksNoFd) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  constexpr std::uint64_t kSeed = 71;
  std::vector<std::uint8_t> payload(256 * util::kKiB);
  core::PayloadGenerator(kSeed).generate(payload);
  util::Rng rng(71);
  const std::size_t before = open_fds();
  {
    auto sink = std::make_unique<PosixSinkServer>(
        loop, InetAddress::loopback(0), true, kSeed);
    bool reported = false;
    sink->on_complete = [&](const SinkResult&) { reported = true; };
    RawSession whole, partial;
    make_session(whole, rng, sink->port(), payload, kSeed);
    const std::size_t header_len =
        make_session(partial, rng, sink->port(), payload, kSeed);
    whole.conn = raw_connect(loop, sink->port());
    partial.conn = raw_connect(loop, sink->port());
    ASSERT_TRUE(whole.conn.valid());
    ASSERT_TRUE(partial.conn.valid());

    // From here the owner loop is not run, so the whole session's verdict
    // stays queued for it.
    const std::size_t half = payload.size() / 2;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while ((whole.sent < whole.wire.size() ||
            partial.sent < header_len + half) &&
           std::chrono::steady_clock::now() < deadline) {
      whole.push();
      partial.push(header_len + half);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    while ((sink->pending_verdicts() == 0 ||
            sink->bytes_received() < payload.size() + half) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(sink->pending_verdicts(), 1u);
    ASSERT_EQ(sink->bytes_received(), payload.size() + half);

    const auto t0 = std::chrono::steady_clock::now();
    sink.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
    EXPECT_FALSE(reported);
    for (RawSession* r : {&whole, &partial}) {
      std::uint8_t status = 0;
      EXPECT_LE(::recv(r->conn.get(), &status, 1, 0), 0);
    }
  }
  EXPECT_EQ(open_fds(), before);
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

#ifdef LSL_RECV_BIN
// `lsl_recv 0` binds a kernel-chosen port and names it in its banner, so a
// script puts the sink on a free port instead of guessing one.
TEST(PosixRelay, RecvToolOnPortZeroVerifiesOneSession) {
  REQUIRE_LOOPBACK();
  SpawnedDaemon recv =
      spawn_process(LSL_RECV_BIN, {"lsl_recv", "0", "-1"},
                    "lsl_recv: listening on port ", /*with_stderr=*/true);
  ASSERT_NE(recv.port, 0) << recv.output;

  EpollEngine loop;
  PosixSourceConfig cfg;
  cfg.destination = InetAddress::loopback(recv.port);
  cfg.payload_bytes = 256 * util::kKiB;
  cfg.payload_seed = 7;
  PosixSource src(loop, cfg);
  bool done = false;
  bool ok = false;
  src.on_done = [&](bool good) {
    ok = good;
    done = true;
  };
  src.start();
  ASSERT_TRUE(drive(loop, done));
  EXPECT_TRUE(ok);

  EXPECT_EQ(wait_process(recv), 0) << recv.output;
  EXPECT_NE(recv.output.find("digest OK"), std::string::npos) << recv.output;
}

/// Send all of `bytes` on a blocking socket.
bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  return true;
}

/// One status byte from `fd`, or -1 when it closes (or stays silent for
/// `timeout_ms`) without one.
int status_of(int fd, int timeout_ms = 10'000) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) != 1) return -1;
  std::uint8_t status = 0;
  return ::recv(fd, &status, 1, 0) == 1 ? status : -1;
}

// `lsl_recv -1` stops after its session's verdict *and* every status byte
// the session owes. Two lanes: lane 0 arrives whole, lane 1 holds back its
// trailer, so the merge resolves (lane 1's payload completes it, lane 0
// carried the trailer) while lane 1 is still open. Its status is sent when
// its own trailer arrives — the receiver must still be there to send it.
TEST(PosixRelay, RecvOnceAnswersALaneThatOutlivesItsMerge) {
  REQUIRE_LOOPBACK();
  SpawnedDaemon recv =
      spawn_process(LSL_RECV_BIN, {"lsl_recv", "0", "-1", "-g", "9"},
                    "lsl_recv: listening on port ", /*with_stderr=*/true);
  ASSERT_NE(recv.port, 0) << recv.output;

  const std::uint64_t bytes = 256 * util::kKiB;
  util::Rng rng(9);
  core::LaneSet lanes(
      stripe::StripePlan::round_robin(bytes, 2, 64 * util::kKiB, 0), bytes,
      core::SessionId::generate(rng), 9);
  std::vector<std::uint8_t> wire[2];
  std::span<const std::uint8_t> trailer;
  md5::Digest digest;
  for (std::size_t j = 0; j < 2; ++j) {
    core::SourcePlan p = lanes.plan(j, 0);
    p.header.destination = {0x7f000001, recv.port};
    core::encode_header(p.header, wire[j]);
    std::vector<std::uint8_t> payload(p.payload_bytes);
    p.payload_fill(0, payload);
    wire[j].insert(wire[j].end(), payload.begin(), payload.end());
    digest = *p.trailer_digest;  // the merged stream's, on every lane
  }
  trailer = digest.bytes;

  engine::Fd lane0 = posix::connect_tcp(InetAddress::loopback(recv.port));
  engine::Fd lane1 = posix::connect_tcp(InetAddress::loopback(recv.port));
  ASSERT_TRUE(lane0.valid() && lane1.valid());
  for (const int fd : {lane0.get(), lane1.get()}) {
    const int flags = ::fcntl(fd, F_GETFL);
    ASSERT_EQ(::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK), 0);
  }
  ASSERT_TRUE(send_all(lane0.get(), wire[0]));
  ASSERT_TRUE(send_all(lane0.get(), trailer));
  ::shutdown(lane0.get(), SHUT_WR);
  ASSERT_TRUE(send_all(lane1.get(), wire[1]));

  // The merge resolved: lane 0 has its status and the verdict is printed.
  EXPECT_EQ(status_of(lane0.get()), core::kStatusOk);
  // Lane 1 is owed its status, so the receiver keeps it open.
  EXPECT_EQ(status_of(lane1.get(), 500), -1);
  ASSERT_TRUE(send_all(lane1.get(), trailer));
  ::shutdown(lane1.get(), SHUT_WR);
  EXPECT_EQ(status_of(lane1.get()), core::kStatusOk);

  EXPECT_EQ(wait_process(recv), 0) << recv.output;
  EXPECT_NE(recv.output.find("digest OK"), std::string::npos) << recv.output;
}

#if defined(LSL_SEND_BIN) && defined(LSD_RELAY_BIN)
// The lsl_send binary end to end: through `lsd_relay --daemon 0` depots
// into an `lsl_recv 0 -1` that exits after its one session.

std::string loopback_endpoint(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

/// Both ends of one lsl_send run: exit statuses and output.
struct SendRun {
  int send_rc = -1;
  std::string send_out;
  int recv_rc = -1;
  std::string recv_out;
};

/// Run `lsl_send <args...> <sink>` against a fresh `lsl_recv 0 -1
/// <recv_args...>` and wait for both to exit.
SendRun send_to_recv(std::vector<std::string> args,
                     std::vector<std::string> recv_args = {}) {
  recv_args.insert(recv_args.begin(), {"lsl_recv", "0", "-1"});
  SpawnedDaemon recv =
      spawn_process(LSL_RECV_BIN, std::move(recv_args),
                    "lsl_recv: listening on port ", /*with_stderr=*/true);
  SendRun run;
  if (recv.port == 0) {
    run.recv_out = recv.output;
    return run;
  }
  args.insert(args.begin(), "lsl_send");
  args.push_back(loopback_endpoint(recv.port));
  run.send_rc = run_process(LSL_SEND_BIN, std::move(args), &run.send_out);
  run.recv_rc = wait_process(recv);
  run.recv_out = recv.output;
  return run;
}

TEST(PosixRelay, SendToolThroughDepotVerifiesSeededContent) {
  REQUIRE_LOOPBACK();
  SpawnedDaemon depot = spawn_daemon(LSD_RELAY_BIN);
  ASSERT_NE(depot.port, 0) << depot.output;

  const SendRun r = send_to_recv(
      {"-v", loopback_endpoint(depot.port), "-n", "1000000", "-s", "5"},
      {"-g", "5"});
  EXPECT_EQ(r.send_rc, 0) << r.send_out;
  EXPECT_NE(r.send_out.find("delivered and verified"), std::string::npos)
      << r.send_out;
  EXPECT_EQ(r.recv_rc, 0) << r.recv_out;
  EXPECT_NE(r.recv_out.find("1000000 bytes"), std::string::npos) << r.recv_out;
  EXPECT_NE(r.recv_out.find("digest OK"), std::string::npos) << r.recv_out;
  reap_daemon(depot, SIGTERM);
}

TEST(PosixRelay, SendToolWithWrongSeedFailsAtTheSink) {
  REQUIRE_LOOPBACK();
  SpawnedDaemon depot = spawn_daemon(LSD_RELAY_BIN);
  ASSERT_NE(depot.port, 0) << depot.output;

  const SendRun r = send_to_recv(
      {"-v", loopback_endpoint(depot.port), "-n", "1000000", "-s", "6"},
      {"-g", "5"});
  EXPECT_EQ(r.send_rc, 1) << r.send_out;
  EXPECT_NE(r.send_out.find("delivery FAILED"), std::string::npos)
      << r.send_out;
  EXPECT_EQ(r.recv_rc, 0) << r.recv_out;
  EXPECT_NE(r.recv_out.find("MISMATCH"), std::string::npos) << r.recv_out;
  reap_daemon(depot, SIGTERM);
}

TEST(PosixRelay, SendToolStreamsAFile) {
  REQUIRE_LOOPBACK();
  const std::string path = ::testing::TempDir() + "/lsl_send_300k.bin";
  {
    util::Rng rng(29);
    std::vector<char> bytes(300000);
    for (char& b : bytes) b = static_cast<char>(rng());
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const SendRun r = send_to_recv({"-f", path});
  EXPECT_EQ(r.send_rc, 0) << r.send_out;
  EXPECT_EQ(r.recv_rc, 0) << r.recv_out;
  EXPECT_NE(r.recv_out.find("300000 bytes"), std::string::npos) << r.recv_out;
  EXPECT_NE(r.recv_out.find("digest OK"), std::string::npos) << r.recv_out;
  std::remove(path.c_str());
}

TEST(PosixRelay, SendToolStreamsAnEmptyFile) {
  REQUIRE_LOOPBACK();
  const std::string path = ::testing::TempDir() + "/lsl_send_empty.bin";
  std::ofstream(path, std::ios::binary).close();
  const SendRun r = send_to_recv({"-f", path});
  EXPECT_EQ(r.send_rc, 0) << r.send_out;
  EXPECT_EQ(r.recv_rc, 0) << r.recv_out;
  EXPECT_NE(r.recv_out.find(": 0 bytes"), std::string::npos) << r.recv_out;
  EXPECT_NE(r.recv_out.find("digest OK"), std::string::npos) << r.recv_out;
  std::remove(path.c_str());
}

// A file that cannot supply the bytes its size promised ends the run with
// "short read" before the trailer, so the sink never verifies the session.
// A directory is such a file: it opens and has a size, and every read of
// it fails.
TEST(PosixRelay, SendToolShortReadNeverVerifies) {
  REQUIRE_LOOPBACK();
  const std::string dir = ::testing::TempDir() + "/lsl_send_short_read";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/entry").close();
  struct stat st {};
  ASSERT_EQ(::stat(dir.c_str(), &st), 0);
  if (st.st_size == 0) GTEST_SKIP() << "directories have size 0 here";

  const SendRun r = send_to_recv({"-f", dir});
  EXPECT_EQ(r.send_rc, 1) << r.send_out;
  EXPECT_NE(r.send_out.find("short read"), std::string::npos) << r.send_out;
  EXPECT_EQ(r.recv_rc, 0) << r.recv_out;
  EXPECT_NE(r.recv_out.find("MISMATCH"), std::string::npos) << r.recv_out;
  std::filesystem::remove_all(dir);
}

TEST(PosixRelay, SendToolStripesOverTwoDepots) {
  REQUIRE_LOOPBACK();
  SpawnedDaemon d1 = spawn_daemon(LSD_RELAY_BIN);
  SpawnedDaemon d2 = spawn_daemon(LSD_RELAY_BIN);
  ASSERT_NE(d1.port, 0) << d1.output;
  ASSERT_NE(d2.port, 0) << d2.output;

  const SendRun r = send_to_recv(
      {"-v", loopback_endpoint(d1.port), "-v", loopback_endpoint(d2.port),
       "--stripes", "2", "-n", "1000000", "-s", "9"},
      {"-g", "9"});
  EXPECT_EQ(r.send_rc, 0) << r.send_out;
  EXPECT_NE(r.send_out.find("delivered and verified"), std::string::npos)
      << r.send_out;
  EXPECT_EQ(r.recv_rc, 0) << r.recv_out;
  EXPECT_NE(r.recv_out.find("digest OK"), std::string::npos) << r.recv_out;
  reap_daemon(d1, SIGTERM);
  reap_daemon(d2, SIGTERM);
}

TEST(PosixRelay, SendToolRetriesAClosedPortThenFails) {
  REQUIRE_LOOPBACK();
  // A bound socket that never listens holds the port: every connect to it
  // is refused.
  engine::Fd held(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(held.valid());
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof sa;
  ASSERT_EQ(::bind(held.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa),
            0);
  ASSERT_EQ(::getsockname(held.get(), reinterpret_cast<sockaddr*>(&sa), &len),
            0);

  std::string out;
  EXPECT_EQ(run_process(LSL_SEND_BIN,
                        {"lsl_send", "--retry", "1", "--backoff", "10ms",
                         loopback_endpoint(ntohs(sa.sin_port)), "-n", "1000"},
                        &out),
            1)
      << out;
  EXPECT_NE(out.find("retry 1/1"), std::string::npos) << out;
}
#endif  // LSL_SEND_BIN && LSD_RELAY_BIN
#endif  // LSL_RECV_BIN

}  // namespace
}  // namespace lsl::test
