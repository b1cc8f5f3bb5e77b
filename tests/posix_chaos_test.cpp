// Chaos tier, real-socket half: scripted faults (lsd --fault-spec grammar)
// applied to a live one-shard ShardedLsd — the daemon lsd_relay runs —
// over loopback TCP: kill-and-resume cycles, refused accepts, crash/restart
// windows, with the posix source recovering via the same fault policies
// the simulator uses. Liveness and drain cases drive a bare Lsd on the
// test's own loop. Runs under the `chaos` ctest label alongside
// tests/chaos_test.cpp; scripts/check.sh runs the label plain and under
// tsan, since the fault plan runs on a shard thread.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "lsl/session_id.hpp"
#include "lsl/wire.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
#include "posix/lsd.hpp"
#include "posix/sharded_lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix_test_util.hpp"
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
using posix::ShardedLsd;
using posix::ShardedLsdConfig;
using posix::SinkResult;

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

#define REQUIRE_LOOPBACK()                                     \
  if (!loopback_available()) {                                 \
    GTEST_SKIP() << "loopback sockets unavailable in sandbox"; \
  }

fault::FaultPlan plan_of(const std::string& spec) {
  std::string err;
  const auto plan = fault::parse_fault_spec(spec, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  return plan.value_or(fault::FaultPlan{});
}

/// The shipping daemon with one shard, running `spec` from construction
/// on its own thread.
std::unique_ptr<ShardedLsd> faulty_depot(const LsdConfig& base,
                                         const std::string& spec) {
  ShardedLsdConfig cfg;
  cfg.base = base;
  cfg.shards = 1;
  cfg.fault_plan = plan_of(spec);
  return std::make_unique<ShardedLsd>(cfg);
}

/// Drive the client loop until `done` or timeout.
bool drive(EpollEngine& loop, const bool& done, double timeout_s = 30.0) {
  return wait_until(loop, [&done] { return done; }, timeout_s);
}

// The PR's posix acceptance scenario: one real-socket kill-and-resume
// cycle. The daemon hard-resets the upstream connection mid-stream
// (fault-spec `reset`), parks the session under --resume-grace semantics,
// and the source reconnects with kFlagResume from its acked offset; the
// sink must still verify the full stream byte-for-byte.
TEST(PosixChaos, KillAndResumeCycle) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  // Large enough that kernel socket buffers cannot swallow the whole
  // stream: the reset must land while the source still has bytes to send,
  // or there is nothing to resume.
  const std::uint64_t bytes = 64 * util::kMiB;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 7);
  bool sink_done = false;
  SinkResult sink_res;
  sink.on_complete = [&](const SinkResult& r) {
    sink_res = r;
    sink_done = true;
  };

  LsdConfig dcfg;
  dcfg.buffer_bytes = 256 * util::kKiB;
  dcfg.resume_grace = std::chrono::milliseconds(3000);
  const auto depot = faulty_depot(dcfg, "reset:depot=d1,at_bytes=4194304");

  fault::RetryConfig rcfg;
  rcfg.base_delay = 20 * util::kMillisecond;
  fault::RoutePolicy policy = fixed_route_policy(rcfg, 7);

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(depot->port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = bytes;
  scfg.payload_seed = 7;
  scfg.resumable = true;
  scfg.reconnect_backoff = backoff_of(policy);
  PosixSource source(loop, scfg);
  bool src_done = false;
  bool src_ok = false;
  source.on_done = [&](bool ok) {
    src_ok = ok;
    src_done = true;
  };
  source.start();

  ASSERT_TRUE(drive(loop, sink_done));
  drive(loop, src_done, 5.0);

  EXPECT_TRUE(src_ok);
  EXPECT_TRUE(sink_res.verified);
  EXPECT_EQ(sink_res.payload_bytes, bytes);
  EXPECT_GE(source.resumes(), 1u);
  // The boards publish a loop turn behind the event.
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->stats().sessions_completed == 1; }));
  EXPECT_EQ(depot->faults_injected(), 1u);
  EXPECT_EQ(depot->stats().sessions_parked, 1u);
  EXPECT_EQ(depot->stats().sessions_resumed, 1u);
}

// An injected accept refusal: the first session dies at the handshake
// with a reset; a fresh attempt (what `lsl_send --retry` automates) goes
// through once the drop budget is spent.
TEST(PosixChaos, DroppedAcceptIsRecoveredByRetry) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 256 * util::kKiB;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 9);
  // Due at once: the drop is armed before the constructor returns.
  const auto depot =
      faulty_depot(LsdConfig{}, "syndrop:depot=d1,at=0s,count=1");

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(depot->port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = bytes;
  scfg.payload_seed = 9;

  bool done1 = false;
  bool ok1 = true;
  PosixSource first(loop, scfg);
  first.on_done = [&](bool ok) {
    ok1 = ok;
    done1 = true;
  };
  first.start();
  ASSERT_TRUE(drive(loop, done1));
  EXPECT_FALSE(ok1);
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->stats().accepts_dropped == 1; }));

  bool done2 = false;
  bool ok2 = false;
  PosixSource second(loop, scfg);
  second.on_done = [&](bool ok) {
    ok2 = ok;
    done2 = true;
  };
  second.start();
  ASSERT_TRUE(drive(loop, done2));
  EXPECT_TRUE(ok2);
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->stats().sessions_completed == 1; }));
  EXPECT_EQ(depot->stats().accepts_dropped, 1u);
  EXPECT_EQ(depot->faults_injected(), 1u);
}

// A byte-keyed crash with a scripted restart: the in-flight session dies,
// the daemon comes back on the same port, and a fresh transfer succeeds —
// the retransfer path of the recovery story on real sockets.
TEST(PosixChaos, CrashRestartWindowAllowsRetransfer) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 4 * util::kMiB;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 21);
  LsdConfig dcfg;
  dcfg.buffer_bytes = 128 * util::kKiB;
  const auto depot =
      faulty_depot(dcfg, "crash:depot=d1,at_bytes=1048576,for=200ms");
  const std::uint16_t port = depot->port();

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(port)};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = bytes;
  scfg.payload_seed = 21;

  bool done1 = false;
  bool ok1 = true;
  PosixSource first(loop, scfg);
  first.on_done = [&](bool ok) {
    ok1 = ok;
    done1 = true;
  };
  first.start();
  ASSERT_TRUE(drive(loop, done1));
  EXPECT_FALSE(ok1);
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->faults_injected() == 1; }));

  // Wait out the restart window — the shard's own timer brings the
  // listener back on the same endpoint — then retransfer.
  ASSERT_TRUE(wait_until(
      loop, [port] { return connect_errno(port) == 0; }, 5.0));

  bool done2 = false;
  bool ok2 = false;
  bool sink_ok = false;
  sink.on_complete = [&](const SinkResult& r) { sink_ok = r.verified; };
  PosixSource second(loop, scfg);
  second.on_done = [&](bool ok) {
    ok2 = ok;
    done2 = true;
  };
  second.start();
  ASSERT_TRUE(drive(loop, done2));
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(sink_ok);
  EXPECT_EQ(depot->faults_injected(), 1u);
}

// A parked session whose source never returns must expire after the grace
// window and count as a failed session — not linger forever. Nothing else
// happens on the depot meanwhile: the park's own deadline, on the shard's
// timer, is what wakes the shard.
TEST(PosixChaos, UnresumedParkedSessionExpires) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 33);
  LsdConfig dcfg;
  dcfg.resume_grace = std::chrono::milliseconds(100);
  const auto depot = faulty_depot(dcfg, "reset:depot=d1,at_bytes=1048576");

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(depot->port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = 8 * util::kMiB;
  scfg.payload_seed = 33;
  // Not resumable: the source just dies on the reset, leaving the parked
  // session orphaned.
  PosixSource source(loop, scfg);
  bool done = false;
  source.on_done = [&](bool) { done = true; };
  source.start();
  ASSERT_TRUE(drive(loop, done));
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->stats().sessions_parked == 1; }));

  EXPECT_TRUE(wait_until(
      loop, [&] { return depot->stats().sessions_failed > 0; }, 5.0));
  EXPECT_EQ(depot->stats().sessions_resumed, 0u);
}

// PROTOCOL.md §6: a resume offset beyond what the depot pulled is a gap.
// The resuming connection and the parked session both fail at once —
// no wait for the grace period — and the parked session's memory goes
// back to the pool.
TEST(PosixChaos, ResumeGapFailsParkedSessionAtOnce) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 53,
                       /*verify_content=*/false);
  LsdConfig dcfg;
  dcfg.resume_grace = std::chrono::milliseconds(30000);
  dcfg.use_splice = false;  // payload goes through pooled chunks
  Lsd lsd(loop, dcfg);

  util::Rng rng(53);
  core::SessionHeader h;
  h.session = core::SessionId::generate(rng);
  h.payload_length = util::kMiB;
  const InetAddress dst = InetAddress::loopback(sink.port());
  h.destination = {dst.addr, dst.port};
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);
  const std::size_t sent_payload = 64 * util::kKiB;
  wire.resize(wire.size() + sent_payload, 0x5a);

  engine::Fd client = posix::connect_tcp(InetAddress::loopback(lsd.port()));
  ASSERT_TRUE(client.valid());
  std::size_t off = 0;
  ASSERT_TRUE(wait_until(loop, [&] {
    const long n = posix::write_some(client.get(), wire.data() + off,
                                     wire.size() - off);
    if (n > 0) off += static_cast<std::size_t>(n);
    return off == wire.size();
  }));
  ASSERT_TRUE(wait_until(loop, [&lsd, sent_payload] {
    return lsd.stats().bytes_relayed == sent_payload;
  }));
  lsd.inject_upstream_reset();
  ASSERT_EQ(lsd.parked_relays(), 1u);

  core::SessionHeader rh = h;
  rh.flags |= core::kFlagResume;
  rh.resume_offset = 8 * sent_payload;  // more than the depot ever pulled
  wire.clear();
  core::encode_header(rh, wire);
  engine::Fd again = posix::connect_tcp(InetAddress::loopback(lsd.port()));
  ASSERT_TRUE(again.valid());
  ASSERT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().sessions_accepted == 2; }));
  ASSERT_EQ(posix::write_some(again.get(), wire.data(), wire.size()),
            static_cast<long>(wire.size()));

  // Well inside the 30 s grace.
  EXPECT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().sessions_failed == 2; }, 5.0));
  EXPECT_EQ(lsd.parked_relays(), 0u);
  EXPECT_EQ(lsd.live_relays(), 0u);
  EXPECT_EQ(lsd.stats().sessions_resumed, 0u);
  EXPECT_EQ(lsd.pool().stats().in_use_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Liveness: each deadline class (header, dial, idle, stall) tripped
// deterministically, plus graceful drain. docs/FAULTS.md "Liveness" section
// describes these scenarios; docs/PROTOCOL.md §7 tabulates the defaults.

// A peer that connects and never sends the LSL header must be reaped by
// the header-read deadline, not held forever.
TEST(PosixChaos, HeaderDeadlineReapsSilentClient) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  LsdConfig dcfg;
  dcfg.liveness.header_timeout = 150 * util::kMillisecond;
  Lsd lsd(loop, dcfg);

  engine::Fd client = posix::connect_tcp(InetAddress::loopback(lsd.port()));
  ASSERT_TRUE(client.valid());
  // Never send a byte; the engine's timer must fire the deadline
  // with no help from the host loop beyond ordinary epoll waits.
  EXPECT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().timeouts_header > 0; }, 5.0));
  EXPECT_EQ(lsd.stats().timeouts_header, 1u);
  EXPECT_EQ(lsd.stats().fail_timeout, 1u);
  EXPECT_EQ(lsd.stats().sessions_completed, 0u);
}

// A blackholed next hop (fault-spec `blackhole:`): the non-blocking dial
// never resolves, so the dial deadline must bound it and fail the session.
TEST(PosixChaos, DialDeadlineFiresOnBlackholedNextHop) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 41);
  LsdConfig dcfg;
  dcfg.liveness.dial_timeout = 150 * util::kMillisecond;
  // Due at once: dials stop resolving from the start.
  const auto depot = faulty_depot(dcfg, "blackhole:link=d1-sink,at=0s");

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(depot->port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = 256 * util::kKiB;
  scfg.payload_seed = 41;
  PosixSource source(loop, scfg);
  bool done = false;
  bool ok = true;
  source.on_done = [&](bool o) {
    ok = o;
    done = true;
  };
  source.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_FALSE(ok);
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->stats().sessions_failed == 1; }));
  EXPECT_EQ(depot->stats().timeouts_dial, 1u);
  EXPECT_EQ(depot->stats().fail_timeout, 1u);
  EXPECT_EQ(depot->faults_injected(), 1u);
}

// A client that completes the header, lets the relay dial through, and
// then goes silent mid-payload: the idle deadline must reap it.
TEST(PosixChaos, IdleDeadlineReapsSilentStream) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 43);
  LsdConfig dcfg;
  dcfg.liveness.idle_timeout = 150 * util::kMillisecond;
  Lsd lsd(loop, dcfg);

  util::Rng rng(43);
  core::SessionHeader h;
  h.session = core::SessionId::generate(rng);
  h.payload_length = util::kMiB;  // promised but never delivered
  const InetAddress dst = InetAddress::loopback(sink.port());
  h.destination = {dst.addr, dst.port};
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);

  engine::Fd client = posix::connect_tcp(InetAddress::loopback(lsd.port()));
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().sessions_accepted > 0; }, 5.0));
  ASSERT_EQ(posix::write_some(client.get(), wire.data(), wire.size()),
            static_cast<long>(wire.size()));
  // Silence. The relay dials the sink, enters the stream phase with
  // nothing buffered, and the idle deadline must fire.
  EXPECT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().timeouts_idle > 0; }, 5.0));
  EXPECT_EQ(lsd.stats().timeouts_idle, 1u);
  EXPECT_EQ(lsd.stats().fail_timeout, 1u);
}

// A stalled daemon (fault-spec `slow:`) holds buffered bytes without
// moving them: the min-progress watchdog must distinguish that from a
// merely slow stream and fail the session.
TEST(PosixChaos, StallWatchdogFailsStalledRelay) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  // Large enough that the stall lands with bytes still buffered (kernel
  // socket buffers cannot swallow the remainder).
  const std::uint64_t bytes = 64 * util::kMiB;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 47);
  LsdConfig dcfg;
  dcfg.buffer_bytes = 256 * util::kKiB;
  dcfg.liveness.stall_window = 200 * util::kMillisecond;
  dcfg.liveness.min_bytes_per_window = 1024;
  // Byte-keyed so the stall lands mid-stream on any machine: a wall-clock
  // trigger can fire while the relay is still reading the header under
  // sanitizer slowdown, and a pre-stream stall is the header deadline's
  // territory, not the watchdog's.
  const auto depot =
      faulty_depot(dcfg, "slow:depot=d1,at_bytes=1048576,for=30s");

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(depot->port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = bytes;
  scfg.payload_seed = 47;
  PosixSource source(loop, scfg);
  bool done = false;
  bool ok = true;
  source.on_done = [&](bool o) {
    ok = o;
    done = true;
  };
  source.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_FALSE(ok);
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->stats().sessions_failed >= 1; }));
  EXPECT_GE(depot->stats().timeouts_stall, 1u);
  EXPECT_EQ(depot->stats().fail_timeout, depot->stats().timeouts_stall);
  EXPECT_EQ(depot->faults_injected(), 1u);
}

// SIGTERM-style graceful drain: in-flight sessions finish (MD5 intact at
// the sink) while new connections are refused, and the drain report
// accounts for both.
TEST(PosixChaos, GracefulDrainFinishesInFlightAndRefusesNew) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 64 * util::kMiB;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 53);
  bool sink_done = false;
  SinkResult sink_res;
  sink.on_complete = [&](const SinkResult& r) {
    sink_res = r;
    sink_done = true;
  };

  LsdConfig dcfg;
  dcfg.liveness.drain_deadline = 20ll * util::kSecond;  // generous bound
  Lsd lsd(loop, dcfg);

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(lsd.port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = bytes;
  scfg.payload_seed = 53;
  PosixSource source(loop, scfg);
  bool src_done = false;
  bool src_ok = false;
  source.on_done = [&](bool ok) {
    src_ok = ok;
    src_done = true;
  };
  source.start();

  // Let the transfer get properly mid-flight, then pull the plug.
  ASSERT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().bytes_relayed > 0; }, 10.0));
  lsd.begin_drain();
  EXPECT_TRUE(lsd.draining());
  EXPECT_FALSE(lsd.drain_done());

  // A late arrival must be turned away while the drain runs.
  PosixSourceConfig scfg2 = scfg;
  scfg2.payload_bytes = 64 * util::kKiB;
  PosixSource late(loop, scfg2);
  bool late_done = false;
  bool late_ok = true;
  late.on_done = [&](bool ok) {
    late_ok = ok;
    late_done = true;
  };
  late.start();

  EXPECT_TRUE(wait_until(
      loop,
      [&] { return sink_done && src_done && late_done && lsd.drain_done(); },
      30.0));
  EXPECT_TRUE(src_ok);
  EXPECT_TRUE(sink_res.verified);  // MD5 digest intact through the drain
  EXPECT_EQ(sink_res.payload_bytes, bytes);
  EXPECT_FALSE(late_ok);
  EXPECT_EQ(lsd.stats().sessions_refused_drain, 1u);

  const live::DrainReport& rep = lsd.drain_report();
  EXPECT_FALSE(rep.expired);
  EXPECT_EQ(rep.in_flight_at_start, 1u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.refused, 1u);
  EXPECT_EQ(rep.aborted, 0u);
}

// A drain whose in-flight session cannot finish (the daemon is stalled)
// must still terminate: the drain deadline expires and aborts stragglers.
TEST(PosixChaos, DrainDeadlineAbortsStragglers) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 64 * util::kMiB;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 59);
  LsdConfig dcfg;
  dcfg.buffer_bytes = 256 * util::kKiB;
  dcfg.liveness.drain_deadline = 200 * util::kMillisecond;
  Lsd lsd(loop, dcfg);

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(lsd.port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = bytes;
  scfg.payload_seed = 59;
  PosixSource source(loop, scfg);
  bool src_done = false;
  source.on_done = [&](bool) { src_done = true; };
  source.start();

  ASSERT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().bytes_relayed > 0; }, 10.0));
  lsd.set_stalled(true);  // nothing will ever finish on its own
  bool drain_reported = false;
  lsd.on_drain_done = [&](const live::DrainReport&) {
    drain_reported = true;
  };
  lsd.begin_drain();

  EXPECT_TRUE(wait_until(
      loop, [&lsd] { return lsd.drain_done(); }, 10.0));
  EXPECT_TRUE(drain_reported);
  const live::DrainReport& rep = lsd.drain_report();
  EXPECT_TRUE(rep.expired);
  EXPECT_EQ(rep.in_flight_at_start, 1u);
  EXPECT_EQ(rep.aborted, 1u);
  EXPECT_EQ(rep.completed, 0u);
  wait_until(loop, [&src_done] { return src_done; }, 5.0);
}

// ---------------------------------------------------------------------------
// The fault plan on the shard engine's timers: the shard blocks in epoll,
// and a timer there, not a host poll, decides when an event lands.

// An event due at once applies inside the constructor: on every fresh
// daemon, the very first connection is the one refused.
TEST(PosixChaos, SynDropAtZeroRefusesFirstConnectionOfFreshDaemons) {
  REQUIRE_LOOPBACK();
  EpollEngine idle;
  for (int i = 0; i < 20; ++i) {
    const auto depot =
        faulty_depot(LsdConfig{}, "syndrop:depot=d1,at=0s,count=1");
    ASSERT_EQ(depot->faults_injected(), 1u) << "daemon " << i;
    engine::Fd first(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    const sockaddr_in to = InetAddress::loopback(depot->port()).to_sockaddr();
    // The refusal is a reset, and it can reach the socket before this
    // thread is back from connect(), which then reports it itself.
    if (::connect(first.get(), reinterpret_cast<const sockaddr*>(&to),
                  sizeof(to)) == 0) {
      pollfd pf{first.get(), POLLIN, 0};
      ASSERT_EQ(::poll(&pf, 1, 5000), 1) << "daemon " << i;
      char byte = 0;
      EXPECT_EQ(::recv(first.get(), &byte, 1, 0), -1) << "daemon " << i;
    }
    EXPECT_EQ(errno, ECONNRESET) << "daemon " << i;
    ASSERT_TRUE(wait_until(
        idle, [&] { return depot->stats().accepts_dropped == 1; }));
    EXPECT_EQ(depot->stats().sessions_accepted, 0u);
  }
}

// A distant event stays pending: nothing fires early.
TEST(PosixChaos, DistantResetFiresNothingEarly) {
  REQUIRE_LOOPBACK();
  const auto depot = faulty_depot(LsdConfig{}, "reset:depot=d1,at=60s");
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_EQ(depot->faults_injected(), 0u);
}

// A timed crash on a depot nobody talks to still restarts on schedule:
// the repair rides the shard's timer, not traffic.
TEST(PosixChaos, IdleDepotCrashRestartsOnItsOwn) {
  REQUIRE_LOOPBACK();
  EpollEngine idle;
  const auto depot =
      faulty_depot(LsdConfig{}, "crash:depot=d1,at=0s,for=200ms");
  const std::uint16_t port = depot->port();
  EXPECT_EQ(depot->faults_injected(), 1u);
  EXPECT_EQ(connect_errno(port), ECONNREFUSED);  // down from the start
  EXPECT_TRUE(wait_until(
      idle, [port] { return connect_errno(port) == 0; }, 5.0));
}

/// Runs an engine on its own thread until destroyed.
class LoopThread {
 public:
  LoopThread(EpollEngine& loop, std::function<void()> after_turn)
      : thread_([this, &loop, after_turn = std::move(after_turn)] {
          while (!stop_.load()) {
            loop.run_once(50);
            after_turn();
          }
        }) {}
  ~LoopThread() {
    stop_.store(true);
    thread_.join();
  }
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  /// CPU milliseconds the thread has used so far.
  double cpu_ms() {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &clock) != 0 ||
        clock_gettime(clock, &ts) != 0) {
      return -1.0;
    }
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last: started after stop_ exists
};

/// Holds RLIMIT_NOFILE a little above the lowest free descriptor and
/// takes every descriptor left under it; restores both when destroyed.
class DescriptorExhaustion {
 public:
  DescriptorExhaustion() {
    if (getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (lowest_free < 0) return;
    ::close(lowest_free);
    rlimit low = saved_;
    low.rlim_cur = static_cast<rlim_t>(lowest_free) + 16;
    if (setrlimit(RLIMIT_NOFILE, &low) != 0) return;
    lowered_ = true;
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        exhausted_ = errno == EMFILE;
        break;
      }
      fillers_.emplace_back(fd);
    }
  }
  ~DescriptorExhaustion() {
    fillers_.clear();
    if (lowered_) setrlimit(RLIMIT_NOFILE, &saved_);
  }
  DescriptorExhaustion(const DescriptorExhaustion&) = delete;
  DescriptorExhaustion& operator=(const DescriptorExhaustion&) = delete;

  /// True when the limit dropped and no descriptor is left under it.
  bool exhausted() const { return exhausted_; }

 private:
  rlimit saved_{};
  bool lowered_ = false;
  bool exhausted_ = false;
  std::vector<engine::Fd> fillers_;
};

// At the descriptor limit accept() fails with EMFILE and leaves the
// connection in the backlog, so the level-triggered listener stays
// readable. The daemon must shed such connections (reset, counted in
// accepts_dropped) instead of spinning its thread until a descriptor
// frees, and must serve again once the limit lifts.
TEST(PosixChaos, DescriptorLimitShedsConnectionsWithoutSpinning) {
  REQUIRE_LOOPBACK();
  EpollEngine depot_loop;
  LsdConfig cfg;
  cfg.bind = InetAddress::loopback(0);
  Lsd lsd(depot_loop, cfg);
  const sockaddr_in to = InetAddress::loopback(lsd.port()).to_sockaddr();
  const auto connect_to_depot = [&to](int fd) {
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  };

  // Client sockets exist before the limit drops; connect() needs none.
  constexpr int kClients = 4;
  std::vector<engine::Fd> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    ASSERT_TRUE(clients.back().valid());
  }

  double busy_ms = 0.0;
  {
    // The depot thread fails one throwaway connection before the limit
    // drops, so its accept and relay paths have run once: UBSan's vptr
    // check validates a type on first use through a pipe, which needs a
    // free descriptor.
    engine::Fd warmup(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    ASSERT_EQ(connect_to_depot(warmup.get()), 0);
    warmup = engine::Fd();
    std::atomic<bool> warmed{false};
    LoopThread depot(depot_loop, [&] {
      if (lsd.stats().sessions_failed > 0) warmed.store(true);
    });
    const auto warm_by =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!warmed.load() && std::chrono::steady_clock::now() < warm_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(warmed.load());

    DescriptorExhaustion full;
    ASSERT_TRUE(full.exhausted());
    for (auto& c : clients) ASSERT_EQ(connect_to_depot(c.get()), 0);
    const double cpu0 = depot.cpu_ms();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    busy_ms = depot.cpu_ms() - cpu0;
  }  // the depot thread stops, then the limit and descriptors come back

  // A spinning loop burns the whole window; shedding leaves it idle.
  EXPECT_LT(busy_ms, 60.0) << "depot thread spun at the descriptor limit";
  EXPECT_EQ(lsd.stats().accepts_dropped, static_cast<std::uint64_t>(kClients));
  for (auto& c : clients) {
    char byte = 0;
    EXPECT_EQ(::recv(c.get(), &byte, 1, MSG_DONTWAIT), -1);
    EXPECT_EQ(errno, ECONNRESET);
  }

  // With descriptors back, the daemon accepts again.
  engine::Fd late(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_EQ(connect_to_depot(late.get()), 0);
  ASSERT_TRUE(wait_until(
      depot_loop, [&lsd] { return lsd.stats().sessions_accepted == 2; }));
  EXPECT_EQ(lsd.stats().accepts_dropped, static_cast<std::uint64_t>(kClients));
}

#ifdef LSD_RELAY_BIN
// ---------------------------------------------------------------------------
// The real daemon binary under a real SIGTERM. The in-process drain tests
// above cover the policy; this covers the wiring — the signal lands as an
// EINTR inside epoll_wait, and the daemon must still notice the flag,
// drain, print the report, and exit with the right status (a regression
// here once made SIGTERM exit silently without draining).

struct DaemonRun {
  int exit_code = -1;      ///< daemon's exit status, -1 if it died oddly
  std::string output;      ///< captured stdout (banner + drain report)
};

DaemonRun sigterm_daemon(const std::string& drain_deadline,
                         bool hold_silent_session) {
  DaemonRun run;
  SpawnedDaemon d =
      spawn_daemon(LSD_RELAY_BIN, {"--drain-deadline=" + drain_deadline});
  EXPECT_NE(d.port, 0) << d.output;
  const std::uint16_t port = d.port;

  // Wait for the daemon to accept, proving the listener is up. connect_tcp
  // is non-blocking (EINPROGRESS), so a valid fd alone proves nothing —
  // poll for writability and check the handshake actually completed.
  engine::Fd probe;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    probe = posix::connect_tcp(InetAddress::loopback(port));
    if (probe.valid()) {
      pollfd pf{probe.get(), POLLOUT, 0};
      if (::poll(&pf, 1, 200) == 1 &&
          posix::connect_result(probe.get()) == 0) {
        break;
      }
      probe = engine::Fd();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(probe.valid());
  if (!hold_silent_session) probe = engine::Fd();  // hang up the probe
  // Give the daemon a beat to install its signal handlers and reap the
  // probe hangup, then deliver the signal mid-epoll_wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  run.exit_code = reap_daemon(d, SIGTERM);
  run.output = d.output;
  return run;
}

TEST(PosixChaos, SigtermDrainsDaemonProcessCleanly) {
  REQUIRE_LOOPBACK();
  const DaemonRun run = sigterm_daemon("5s",
                                       /*hold_silent_session=*/false);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("draining"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("drain complete"), std::string::npos)
      << run.output;
}

TEST(PosixChaos, SigtermDrainDeadlineAbortsAndExitsNonZero) {
  REQUIRE_LOOPBACK();
  const DaemonRun run = sigterm_daemon("200ms",
                                       /*hold_silent_session=*/true);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("drain expired"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("1 aborted"), std::string::npos) << run.output;
}
#endif  // LSD_RELAY_BIN

}  // namespace
}  // namespace lsl::test
