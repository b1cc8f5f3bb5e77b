// Chaos tier, real-socket half: scripted faults (lsd --fault-spec grammar)
// applied to a live lsd daemon over loopback TCP — kill-and-resume cycles,
// refused accepts, crash/restart windows — with the posix source recovering
// via the same fault policies the simulator uses. Runs under the `chaos`
// ctest label alongside tests/chaos_test.cpp.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "engine/epoll_engine.hpp"
#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "lsl/session_id.hpp"
#include "lsl/wire.hpp"
#include "metrics/metrics.hpp"
#include "posix/client.hpp"
#include "posix/fault_driver.hpp"
#include "posix/lsd.hpp"
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
using posix::LsdFaultDriver;
using posix::PosixSinkServer;
using posix::PosixSource;
using posix::PosixSourceConfig;
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

/// Drive the loop (and the fault driver) until `done` or timeout.
bool drive(EpollEngine& loop, LsdFaultDriver& driver, const bool& done,
           double timeout_s = 30.0) {
  return wait_until(
      loop, [&done] { return done; }, timeout_s,
      [&driver] { driver.poll(); });
}

/// Backoff bridge: the deterministic fault::RetryPolicy delays, converted
/// to the wall-clock milliseconds the posix source sleeps.
std::function<std::optional<std::chrono::milliseconds>()> backoff_of(
    fault::RetryPolicy& policy) {
  return [&policy]() -> std::optional<std::chrono::milliseconds> {
    const auto d = policy.next_delay();
    if (!d) return std::nullopt;
    return std::chrono::milliseconds(
        std::max<std::int64_t>(1, *d / util::kMillisecond));
  };
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
  Lsd lsd(loop, dcfg);
  LsdFaultDriver driver(lsd, plan_of("reset:depot=d1,at_bytes=4194304"));
  driver.arm();

  fault::RetryConfig rcfg;
  rcfg.base_delay = 20 * util::kMillisecond;
  fault::RetryPolicy policy(rcfg, 7);

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(lsd.port())};
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

  ASSERT_TRUE(drive(loop, driver, sink_done));
  drive(loop, driver, src_done, 5.0);

  EXPECT_TRUE(src_ok);
  EXPECT_TRUE(sink_res.verified);
  EXPECT_EQ(sink_res.payload_bytes, bytes);
  EXPECT_GE(source.resumes(), 1u);
  EXPECT_EQ(driver.injected(), 1u);
  EXPECT_EQ(lsd.stats().sessions_parked, 1u);
  EXPECT_EQ(lsd.stats().sessions_resumed, 1u);
  EXPECT_EQ(lsd.stats().sessions_completed, 1u);
}

// An injected accept refusal: the first session dies at the handshake
// with a reset; a fresh attempt (what `lsl_send --retry` automates) goes
// through once the drop budget is spent.
TEST(PosixChaos, DroppedAcceptIsRecoveredByRetry) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 256 * util::kKiB;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 9);
  Lsd lsd(loop, LsdConfig{});
  LsdFaultDriver driver(lsd, plan_of("syndrop:depot=d1,at=0s,count=1"));
  driver.arm();
  driver.poll();  // due immediately: arm the drop before anyone connects

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(lsd.port())};
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
  ASSERT_TRUE(drive(loop, driver, done1));
  EXPECT_FALSE(ok1);
  EXPECT_EQ(lsd.stats().accepts_dropped, 1u);

  bool done2 = false;
  bool ok2 = false;
  PosixSource second(loop, scfg);
  second.on_done = [&](bool ok) {
    ok2 = ok;
    done2 = true;
  };
  second.start();
  ASSERT_TRUE(drive(loop, driver, done2));
  EXPECT_TRUE(ok2);
  EXPECT_EQ(lsd.stats().sessions_completed, 1u);
  EXPECT_EQ(driver.injected(), 1u);
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
  Lsd lsd(loop, dcfg);
  const std::uint16_t port = lsd.port();
  LsdFaultDriver driver(
      lsd, plan_of("crash:depot=d1,at_bytes=1048576,for=200ms"));
  driver.arm();

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
  ASSERT_TRUE(drive(loop, driver, done1));
  EXPECT_FALSE(ok1);
  EXPECT_TRUE(lsd.crashed());

  // Wait out the restart window, then retransfer.
  ASSERT_TRUE(wait_until(
      loop, [&lsd] { return !lsd.crashed(); }, 5.0,
      [&driver] { driver.poll(); }));
  EXPECT_EQ(lsd.port(), port);  // same endpoint after restart

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
  ASSERT_TRUE(drive(loop, driver, done2));
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(sink_ok);
  EXPECT_EQ(driver.injected(), 1u);
}

// A parked session whose source never returns must expire after the grace
// window and count as a failed session — not linger forever.
TEST(PosixChaos, UnresumedParkedSessionExpires) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 33);
  LsdConfig dcfg;
  dcfg.resume_grace = std::chrono::milliseconds(100);
  Lsd lsd(loop, dcfg);
  LsdFaultDriver driver(lsd, plan_of("reset:depot=d1,at_bytes=1048576"));
  driver.arm();

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(lsd.port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = 8 * util::kMiB;
  scfg.payload_seed = 33;
  // Not resumable: the source just dies on the reset, leaving the parked
  // session orphaned.
  PosixSource source(loop, scfg);
  bool done = false;
  source.on_done = [&](bool) { done = true; };
  source.start();
  ASSERT_TRUE(drive(loop, driver, done));
  EXPECT_EQ(lsd.stats().sessions_parked, 1u);

  // The parked session's grace expiry also sits on the daemon wheel, so
  // the driver's composed timeout reflects it even though the plan has no
  // timed events left (satellite: next_timeout_ms × park-expiry). Under
  // sanitizer slowdown the 100 ms grace may already have lapsed by now —
  // the bound only holds while the park is still pending.
  const int park_wait = driver.next_timeout_ms();
  if (lsd.stats().sessions_failed == 0) {
    EXPECT_GE(park_wait, 0);
    EXPECT_LE(park_wait, 101);  // resume_grace is 100 ms
  }

  // poll() expires parked sessions.
  EXPECT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().sessions_failed > 0; }, 5.0,
      [&driver] { driver.poll(); }));
  EXPECT_EQ(lsd.stats().sessions_resumed, 0u);
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
  // Never send a byte; the daemon's own timerfd must fire the deadline
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
  Lsd lsd(loop, dcfg);
  LsdFaultDriver driver(lsd, plan_of("blackhole:link=d1-sink,at=0s"));
  driver.arm();
  driver.poll();  // due immediately: dials stop resolving from the start

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(lsd.port())};
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

  ASSERT_TRUE(drive(loop, driver, done));
  EXPECT_FALSE(ok);
  EXPECT_EQ(lsd.stats().timeouts_dial, 1u);
  EXPECT_EQ(lsd.stats().fail_timeout, 1u);
  EXPECT_EQ(driver.injected(), 1u);
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
  Lsd lsd(loop, dcfg);
  // Byte-keyed so the stall lands mid-stream on any machine: a wall-clock
  // trigger can fire while the relay is still reading the header under
  // sanitizer slowdown, and a pre-stream stall is the header deadline's
  // territory, not the watchdog's.
  LsdFaultDriver driver(lsd,
                        plan_of("slow:depot=d1,at_bytes=1048576,for=30s"));
  driver.arm();

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(lsd.port())};
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

  ASSERT_TRUE(drive(loop, driver, done));
  EXPECT_FALSE(ok);
  EXPECT_GE(lsd.stats().timeouts_stall, 1u);
  EXPECT_EQ(lsd.stats().fail_timeout, lsd.stats().timeouts_stall);
  EXPECT_EQ(driver.injected(), 1u);
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
// LsdFaultDriver::next_timeout_ms edge cases (satellite #3): the composed
// wait must clamp due-now to 0, report -1 for nothing-anywhere, and pick
// the sooner of plan events and the daemon's own wheel.

TEST(PosixChaos, FaultDriverNextTimeoutEdgeCases) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  Lsd lsd(loop, LsdConfig{});
  {
    // Empty plan, empty wheel: nothing scheduled anywhere, armed or not.
    LsdFaultDriver driver(lsd, fault::FaultPlan{});
    EXPECT_EQ(driver.next_timeout_ms(), -1);
    driver.arm();
    EXPECT_EQ(driver.next_timeout_ms(), -1);
  }
  {
    // A plan event due at t=0 is overdue the moment the driver arms:
    // clamp to 0 (poll immediately), never negative.
    LsdFaultDriver driver(lsd, plan_of("syndrop:depot=d1,at=0s,count=1"));
    driver.arm();
    EXPECT_EQ(driver.next_timeout_ms(), 0);
    driver.poll();
    // Consumed; back to "nothing scheduled".
    EXPECT_EQ(driver.next_timeout_ms(), -1);
  }
}

TEST(PosixChaos, FaultDriverNextTimeoutComposesDaemonWheel) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  LsdConfig dcfg;
  dcfg.liveness.header_timeout = 5ll * util::kSecond;
  Lsd lsd(loop, dcfg);
  // The only plan event is a distant 60s away.
  LsdFaultDriver driver(lsd, plan_of("reset:depot=d1,at=60s"));
  driver.arm();
  const int plan_only = driver.next_timeout_ms();
  EXPECT_GT(plan_only, 55'000);  // far-future plan event dominates

  // A silent client arms the daemon's 5s header deadline on the wheel;
  // the composed wait must now track the sooner daemon-side deadline.
  engine::Fd client = posix::connect_tcp(InetAddress::loopback(lsd.port()));
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(wait_until(
      loop, [&lsd] { return lsd.stats().sessions_accepted > 0; }, 5.0,
      [&driver] { driver.poll(); }));
  const int composed = driver.next_timeout_ms();
  EXPECT_GT(composed, 0);
  EXPECT_LE(composed, 5001);
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
