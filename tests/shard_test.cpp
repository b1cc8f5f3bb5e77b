// Real-socket tests for the sharded runtime (src/engine + ShardedLsd):
// SO_REUSEPORT accept distribution, cross-shard graceful drain with every
// in-flight session's MD5 digest intact, admin aggregation summing the
// per-shard counters, the shared-budget ceiling under cross-shard
// contention, and the real daemon binary under SIGTERM with --shards=2.
// Runs under the `shard` ctest label; scripts/check.sh also runs the label
// in its tsan column, where the StatsBoard / PostQueue / DrainGate
// publication protocols face the race detector with real shard threads.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/spec.hpp"
#include "metrics/metrics.hpp"
#include "posix/admin.hpp"
#include "posix/client.hpp"
#include "posix/lsd.hpp"
#include "posix/sharded_lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix_test_util.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

using engine::EpollEngine;
using posix::InetAddress;
using posix::PosixSinkServer;
using posix::PosixSource;
using posix::PosixSourceConfig;
using posix::ShardedLsd;
using posix::ShardedLsdConfig;
using posix::SinkResult;

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

/// The client world for one test: a main-thread loop, a verifying sink,
/// and N concurrent sources aimed at the sharded daemon. The daemon's
/// shard threads run on their own; everything here stays on the test
/// thread, exactly like a real client process.
struct ClientWorld {
  ClientWorld(std::uint32_t seed, std::uint16_t daemon_port)
      : sink(loop, InetAddress::loopback(0), /*expect_header=*/true, seed) {
    sink.on_complete = [this](const SinkResult& r) {
      results.push_back(r);
    };
    base.route = {InetAddress::loopback(daemon_port)};
    base.destination = InetAddress::loopback(sink.port());
    base.payload_seed = seed;
  }

  void launch(std::uint64_t payload_bytes) {
    PosixSourceConfig cfg = base;
    cfg.payload_bytes = payload_bytes;
    auto src = std::make_unique<PosixSource>(loop, cfg);
    src->on_done = [this](bool ok) {
      ++done;
      if (ok) ++succeeded;
    };
    src->start();
    sources.push_back(std::move(src));
  }

  std::size_t verified() const {
    std::size_t n = 0;
    for (const SinkResult& r : results) {
      if (r.verified) ++n;
    }
    return n;
  }

  EpollEngine loop;
  PosixSinkServer sink;
  PosixSourceConfig base;
  std::vector<std::unique_ptr<PosixSource>> sources;
  std::vector<SinkResult> results;
  std::size_t done = 0;
  std::size_t succeeded = 0;
};

// SO_REUSEPORT accept distribution: 32 sessions against 4 shards must all
// verify, the per-shard accepted counters must sum to the total, and the
// kernel must have spread them over more than one shard (the 4-tuple hash
// makes a single-shard pileup astronomically unlikely).
TEST(ShardTest, ReuseportSpreadsAcceptsAcrossShards) {
  REQUIRE_LOOPBACK();
  ShardedLsdConfig dcfg;
  dcfg.shards = 4;
  ShardedLsd daemon(dcfg);
  ASSERT_EQ(daemon.shard_count(), 4);
  ASSERT_NE(daemon.port(), 0);

  constexpr std::size_t kSessions = 32;
  ClientWorld client(71, daemon.port());
  for (std::size_t i = 0; i < kSessions; ++i) {
    client.launch(64 * util::kKiB);
  }
  ASSERT_TRUE(wait_until(
      client.loop,
      [&] {
        return client.done == kSessions &&
               client.results.size() == kSessions;
      },
      30.0));
  EXPECT_EQ(client.verified(), kSessions);  // every digest intact

  // The boards are published one loop turn behind the event; poll for the
  // final counts instead of snapshotting a racing instant.
  ASSERT_TRUE(wait_until(
      client.loop,
      [&] { return daemon.stats().sessions_completed >= kSessions; }, 5.0));
  std::uint64_t total_accepted = 0;
  int active_shards = 0;
  for (int i = 0; i < daemon.shard_count(); ++i) {
    const posix::LsdStats s = daemon.shard_stats(i);
    total_accepted += s.sessions_accepted;
    if (s.sessions_accepted > 0) ++active_shards;
  }
  EXPECT_EQ(total_accepted, kSessions);
  EXPECT_GE(active_shards, 2)
      << "SO_REUSEPORT delivered every session to one shard";
  EXPECT_EQ(daemon.stats().sessions_accepted, kSessions);
}

// A depot-level fault fires once for the whole sharded depot: a byte-keyed
// crash triggers on the shards' summed relayed bytes, is counted once, and
// takes every shard down together (no listener is left to connect to).
TEST(ShardTest, DepotFaultPlanFiresOnceAndCrashesEveryShard) {
  REQUIRE_LOOPBACK();
  std::string err;
  const auto plan =
      fault::parse_fault_spec("crash:depot=d1,at_bytes=262144", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ShardedLsdConfig dcfg;
  dcfg.shards = 2;
  dcfg.fault_plan = *plan;
  ShardedLsd daemon(dcfg);

  constexpr std::size_t kSessions = 16;
  ClientWorld client(73, daemon.port());
  for (std::size_t i = 0; i < kSessions; ++i) {
    client.launch(256 * util::kKiB);
  }
  ASSERT_TRUE(wait_until(
      client.loop, [&] { return client.done == kSessions; }, 30.0));
  ASSERT_TRUE(wait_until(
      client.loop, [&] { return daemon.faults_injected() >= 1; }, 5.0));
  // The other shard applies the crash on its next wakeup.
  ASSERT_TRUE(wait_until(
      client.loop,
      [&] { return connect_errno(daemon.port()) == ECONNREFUSED; }, 5.0));
  EXPECT_EQ(daemon.faults_injected(), 1u);
  EXPECT_LT(client.succeeded, kSessions);
}

// `syndrop` counts per depot, as the simulator's FaultInjector does: the
// shards claim from one count, so count=3 refuses exactly 3 of 10 dials
// however the kernel spreads them (not up to 3 per shard).
TEST(ShardTest, SynDropCountIsDepotWide) {
  REQUIRE_LOOPBACK();
  std::string err;
  const auto plan =
      fault::parse_fault_spec("syndrop:depot=d1,at=0s,count=3", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ShardedLsdConfig dcfg;
  dcfg.shards = 2;
  dcfg.fault_plan = *plan;
  ShardedLsd daemon(dcfg);

  constexpr std::uint64_t kDials = 10;
  std::vector<engine::Fd> dials;
  const sockaddr_in to = InetAddress::loopback(daemon.port()).to_sockaddr();
  for (std::uint64_t i = 0; i < kDials; ++i) {
    dials.emplace_back(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    ASSERT_EQ(::connect(dials.back().get(),
                        reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
              0);
  }
  EpollEngine idle;
  ASSERT_TRUE(wait_until(
      idle,
      [&] {
        const posix::LsdStats s = daemon.stats();
        return s.accepts_dropped + s.sessions_accepted == kDials;
      },
      5.0));
  EXPECT_EQ(daemon.stats().accepts_dropped, 3u);
  EXPECT_EQ(daemon.faults_injected(), 1u);
}

// With a registry, the depot's fault plan records into the one `fault.*`
// bundle: a crash on a two-shard depot is counted once.
TEST(ShardTest, FaultPlanRecordsIntoRegistry) {
  REQUIRE_LOOPBACK();
  std::string err;
  const auto plan =
      fault::parse_fault_spec("crash:depot=d1,at=0s,for=100ms", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  metrics::Registry registry;
  ShardedLsdConfig dcfg;
  dcfg.shards = 2;
  dcfg.registry = &registry;
  dcfg.fault_plan = *plan;
  ShardedLsd daemon(dcfg);
  const metrics::Counter* injected = registry.find_counter("fault.injected");
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->value(), 1u);  // due at once: applied already
  EXPECT_EQ(daemon.faults_injected(), 1u);
}

// --- Engine timers -----------------------------------------------------------
// Every deadline on a shard is a timer on its engine; these pin the
// engine's side of that contract with no sockets at all.

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(EpollEngine::now_ns() - start_ns) * 1e-9;
}

// With no fd ready, a blocking run_once() still returns once the earliest
// timer is due, and runs it.
TEST(Engine, PendingTimerWakesBlockingRunOnce) {
  EpollEngine e;
  int fired = 0;
  const std::int64_t start = EpollEngine::now_ns();
  e.schedule_in(20 * util::kMillisecond, [&] { ++fired; });
  EXPECT_EQ(e.run_once(-1), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_GE(seconds_since(start), 0.020);
  EXPECT_TRUE(e.timers().empty());
}

TEST(Engine, CancelledTimerNeverFires) {
  EpollEngine e;
  bool cancelled_fired = false;
  bool kept_fired = false;
  const util::EventId id =
      e.schedule_in(5 * util::kMillisecond, [&] { cancelled_fired = true; });
  e.schedule_in(30 * util::kMillisecond, [&] { kept_fired = true; });
  e.timers().cancel(id);
  e.run();  // returns once the kept timer has run: nothing else is left
  EXPECT_TRUE(kept_fired);
  EXPECT_FALSE(cancelled_fired);
}

// A timer a timer callback schedules for "now" is due before the engine
// could wait again: the next run_once() runs it instead of blocking.
TEST(Engine, TimerScheduledAtNowFromATimerIsNeverLost) {
  EpollEngine e;
  bool second = false;
  bool gave_up = false;
  e.schedule_in(0, [&] {
    e.timers().schedule_at(EpollEngine::now_ns(), [&] { second = true; });
  });
  const util::EventId guard =
      e.schedule_in(5 * util::kSecond, [&] { gave_up = true; });
  const std::int64_t start = EpollEngine::now_ns();
  while (!second && !gave_up) e.run_once(-1);
  EXPECT_TRUE(second);
  EXPECT_FALSE(gave_up);
  EXPECT_LT(seconds_since(start), 1.0);
  e.timers().cancel(guard);
}

// run() keeps going while either an fd is watched or a timer is pending,
// and returns once neither is: PosixSource::end and Lsd::shutdown leave an
// engine in that state for a caller's run() to finish.
TEST(Engine, RunReturnsOnceNoFdIsWatchedAndNoTimerIsPending) {
  EpollEngine e;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  engine::Fd r(fds[0]);
  engine::Fd w(fds[1]);
  e.add(r.get(), EPOLLIN, [](std::uint32_t) {});  // never readable
  bool last_ran = false;
  e.schedule_in(10 * util::kMillisecond, [&] {
    e.remove(r.get());  // the last fd goes, but one timer is left
    e.schedule_in(10 * util::kMillisecond, [&] { last_ran = true; });
  });
  e.run();
  EXPECT_TRUE(last_ran);
  EXPECT_EQ(e.watched_count(), 0u);
  EXPECT_TRUE(e.timers().empty());
}

// A shard blocks in epoll until something is due: an idle daemon does not
// wake on a cadence of its own.
TEST(ShardTest, IdleShardDoesNotWake) {
  REQUIRE_LOOPBACK();
  metrics::Registry registry;
  ShardedLsdConfig dcfg;
  dcfg.shards = 1;
  dcfg.registry = &registry;
  ShardedLsd daemon(dcfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  const metrics::Counter* iterations =
      registry.find_counter("loop.shard0.iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_LE(iterations->value(), 1u);
}

// Cross-shard graceful drain: sessions in flight on both shards when the
// drain starts must finish with their MD5 digests intact, a late arrival
// must be refused, and the merged report must account for all of it.
TEST(ShardTest, DrainFinishesInFlightAcrossShardsWithDigestsIntact) {
  REQUIRE_LOOPBACK();
  ShardedLsdConfig dcfg;
  dcfg.shards = 2;
  dcfg.base.liveness.drain_deadline = 20ll * util::kSecond;
  ShardedLsd daemon(dcfg);

  constexpr std::size_t kSessions = 4;
  const std::uint64_t bytes = 16 * util::kMiB;
  ClientWorld client(73, daemon.port());
  for (std::size_t i = 0; i < kSessions; ++i) client.launch(bytes);

  // Let the transfers get properly mid-flight, then pull the plug from
  // this (foreign) thread — begin_drain is the cross-thread entry point.
  ASSERT_TRUE(wait_until(
      client.loop, [&] { return daemon.stats().bytes_relayed > 0; }, 10.0));
  daemon.begin_drain();
  EXPECT_TRUE(daemon.draining());
  daemon.begin_drain();  // idempotent: a repeated signal is harmless

  // A late arrival must be turned away while the fleet drains.
  bool late_done = false;
  bool late_ok = true;
  PosixSourceConfig late_cfg = client.base;
  late_cfg.payload_bytes = 64 * util::kKiB;
  PosixSource late(client.loop, late_cfg);
  late.on_done = [&](bool ok) {
    late_ok = ok;
    late_done = true;
  };
  late.start();

  ASSERT_TRUE(wait_until(
      client.loop,
      [&] {
        return client.done == kSessions && late_done && daemon.drain_done();
      },
      30.0));
  EXPECT_EQ(client.succeeded, kSessions);
  EXPECT_EQ(client.verified(), kSessions);
  for (const SinkResult& r : client.results) {
    EXPECT_EQ(r.payload_bytes, bytes);
  }
  EXPECT_FALSE(late_ok);

  const live::DrainReport rep = daemon.drain_report();
  EXPECT_FALSE(rep.expired);
  EXPECT_GE(rep.in_flight_at_start, 1u);
  EXPECT_EQ(rep.completed, rep.in_flight_at_start);  // nothing died early
  EXPECT_EQ(rep.aborted, 0u);
  EXPECT_GE(rep.refused, 1u);
  ASSERT_TRUE(wait_until(
      client.loop,
      [&] { return daemon.stats().sessions_refused_drain >= 1; }, 5.0));
}

// A shard whose drain resolved at once (nothing in flight) keeps refusing
// late arrivals, and the merged report must carry those refusals too.
TEST(ShardTest, RefusalAfterShardDrainResolvedReachesDrainReport) {
  REQUIRE_LOOPBACK();
  ShardedLsdConfig dcfg;
  dcfg.shards = 1;
  ShardedLsd daemon(dcfg);
  EpollEngine loop;  // only paces the waits below

  daemon.begin_drain();
  ASSERT_TRUE(wait_until(loop, [&] { return daemon.drain_done(); }, 5.0));
  EXPECT_EQ(daemon.drain_report().refused, 0u);

  engine::Fd late = posix::connect_tcp(InetAddress::loopback(daemon.port()));
  ASSERT_TRUE(late.valid());
  // Board words are published relaxed: wait for each, then pin the count.
  EXPECT_TRUE(wait_until(
      loop, [&] { return daemon.drain_report().refused >= 1; }, 5.0));
  EXPECT_TRUE(wait_until(
      loop, [&] { return daemon.stats().sessions_refused_drain >= 1; }, 5.0));
  EXPECT_EQ(daemon.drain_report().refused, 1u);
  EXPECT_EQ(daemon.stats().sessions_refused_drain, 1u);
}

/// Raw nonblocking Unix-domain client (the admin protocol is line-based).
class RawClient {
 public:
  explicit RawClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0 &&
        errno != EINPROGRESS && errno != EAGAIN) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool valid() const { return fd_ >= 0; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      return false;
    }
    return true;
  }

  void drain() {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd_, buf, sizeof buf, 0)) > 0) {
      buf_.append(buf, static_cast<std::size_t>(n));
    }
  }

  const std::string& received() const { return buf_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

// The admin endpoint on a sharded daemon: `health` must report the shard
// width and counters summed across every shard's board, and the raw
// `stats` fallback must serve the same aggregate. The AdminServer runs on
// a control loop on this thread — a different thread than every shard.
TEST(ShardTest, AdminHealthAndStatsSumShardCounters) {
  REQUIRE_LOOPBACK();
  ShardedLsdConfig dcfg;
  dcfg.shards = 2;
  ShardedLsd daemon(dcfg);

  constexpr std::size_t kSessions = 8;
  ClientWorld client(79, daemon.port());
  for (std::size_t i = 0; i < kSessions; ++i) {
    client.launch(64 * util::kKiB);
  }
  ASSERT_TRUE(wait_until(
      client.loop, [&] { return client.done == kSessions; }, 30.0));
  ASSERT_EQ(client.succeeded, kSessions);
  ASSERT_TRUE(wait_until(
      client.loop,
      [&] { return daemon.stats().sessions_completed >= kSessions; }, 5.0));

  const std::string path = ::testing::TempDir() + "/shard_admin.sock";
  EpollEngine control;
  posix::AdminServer admin(control, path, daemon);
  RawClient c(path);
  ASSERT_TRUE(c.valid());
  ASSERT_TRUE(c.send_all("health\nstats\n"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto frames = [&] {
    int n = 0;
    std::size_t at = 0;
    while ((at = c.received().find("\n\n", at)) != std::string::npos) {
      ++n;
      at += 2;
    }
    return n;
  };
  while (frames() < 2 && std::chrono::steady_clock::now() < deadline) {
    control.run_once(20);
    c.drain();
  }
  ASSERT_GE(frames(), 2) << c.received();

  const std::string& out = c.received();
  EXPECT_NE(out.find("\"shards\":2"), std::string::npos) << out;
  const std::string accepted =
      "\"sessions_accepted\":" + std::to_string(kSessions);
  const std::string completed =
      "\"sessions_completed\":" + std::to_string(kSessions);
  // Once in the health object, once in the stats fallback — both are the
  // cross-shard sum, not any single shard's count.
  EXPECT_NE(out.find(accepted), std::string::npos) << out;
  EXPECT_NE(out.find(accepted, out.find(accepted) + 1), std::string::npos)
      << out;
  EXPECT_NE(out.find(completed), std::string::npos) << out;
  EXPECT_NE(out.find("\"draining\":false"), std::string::npos) << out;
}

// The process-wide memory ceiling: two shards hammering buffered relays
// (splice off, so every byte moves through pool chunks) may refuse
// sessions under pressure, but the shared budget's peak must never pass
// the configured ceiling and must drain back to zero.
TEST(ShardTest, SharedBudgetCeilingHoldsAcrossShards) {
  REQUIRE_LOOPBACK();
  ShardedLsdConfig dcfg;
  dcfg.shards = 2;
  dcfg.base.use_splice = false;
  dcfg.base.buffer_bytes = 128 * util::kKiB;
  dcfg.base.pool.chunk_bytes = 64 * util::kKiB;
  dcfg.base.pool.budget_bytes = 512 * util::kKiB;
  ShardedLsd daemon(dcfg);

  constexpr std::size_t kSessions = 16;
  ClientWorld client(83, daemon.port());
  for (std::size_t i = 0; i < kSessions; ++i) {
    client.launch(256 * util::kKiB);
  }
  ASSERT_TRUE(wait_until(
      client.loop, [&] { return client.done == kSessions; }, 30.0));
  EXPECT_GE(client.succeeded, 1u);  // pressure may refuse, not starve
  EXPECT_EQ(client.verified(), client.succeeded);

  EXPECT_LE(daemon.budget().peak(), 512 * util::kKiB)
      << "shared budget ceiling breached across shards";
  ASSERT_TRUE(wait_until(
      client.loop, [&] { return daemon.budget().in_use() == 0; }, 10.0))
      << "shared budget did not drain back to zero";
  const buf::PoolStats pool = daemon.pool_stats();
  EXPECT_EQ(pool.in_use_bytes, 0u);
  EXPECT_GE(pool.allocs, 1u);
}

#ifdef LSD_RELAY_BIN
// The real daemon binary, sharded, under a real SIGTERM: the signal lands
// on the control thread, begin_drain fans out to every shard over the
// PostQueue, and the process must print the merged report and exit 0.
TEST(ShardTest, SigtermDrainsShardedDaemonProcessCleanly) {
  REQUIRE_LOOPBACK();
  SpawnedDaemon d =
      spawn_daemon(LSD_RELAY_BIN, {"--drain-deadline=5s", "--shards=2"});
  ASSERT_NE(d.port, 0) << d.output;
  const std::uint16_t port = d.port;

  // Prove a listener is up before signalling (connect_tcp is nonblocking,
  // so poll for the handshake result).
  engine::Fd probe;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
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
  ASSERT_TRUE(probe.valid());
  probe = engine::Fd();  // hang up; nothing in flight, drain is instant
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int exit_code = reap_daemon(d, SIGTERM);
  EXPECT_EQ(exit_code, 0);
  const std::string& output = d.output;
  EXPECT_NE(output.find("draining 2 shards"), std::string::npos) << output;
  EXPECT_NE(output.find("drain complete"), std::string::npos) << output;
}

// An argument the daemon does not know must stop it before it binds: an
// unknown option used to become the buffer size ("--log-level=info" ->
// buffer 0), and the first session then aborted the daemon.
TEST(ShardTest, DaemonRejectsBadArgumentsBeforeBinding) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"0", "--log-level=info"}, "unknown option --log-level=info"},
       {{"0", "--shards=2x"}, "bad --shards"},
       {{"0", "--shards=0"}, "bad --shards"},
       {{"65536"}, "bad port 65536"},
       {{"4000x"}, "bad port 4000x"},
       {{"0", "0"}, "bad buffer size 0"},
       {{"0", "64k"}, "bad buffer size 64k"},
       {{"0", "65536", "7"}, "unexpected argument 7"}};
  for (const auto& [args, message] : cases) {
    std::vector<std::string> argv = {"lsd_relay", "--daemon"};
    argv.insert(argv.end(), args.begin(), args.end());
    SCOPED_TRACE(argv.back());
    SpawnedDaemon d = spawn_process(LSD_RELAY_BIN, argv,
                                    "forwarding daemon on port ",
                                    /*with_stderr=*/true);
    if (d.port != 0) {
      reap_daemon(d, SIGKILL);
      ADD_FAILURE() << "daemon started: " << d.output;
      continue;
    }
    EXPECT_EQ(wait_process(d), 2) << d.output;
    EXPECT_NE(d.output.find(message), std::string::npos) << d.output;
  }
}
#endif  // LSD_RELAY_BIN

}  // namespace
}  // namespace lsl::test
