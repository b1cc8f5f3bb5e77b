// Real-socket tests for the posix half of the depot health plane
// (docs/HEALTH.md): proactive mid-transfer migration resuming from the
// sink's acknowledged frontier with the stream content intact, the
// daemon-side HealthBoard scoring the depots Lsd dials, per-depot rows
// and the `gossip` command on the admin socket, the GossipPoller merging
// a peer's judgement, and ShardedLsd's pessimistic cross-shard row merge.
// Runs under the `health` ctest label (plain + tsan via scripts/check.sh).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "health/board.hpp"
#include "health/gossip.hpp"
#include "lsl/payload.hpp"
#include "posix/admin.hpp"
#include "posix/client.hpp"
#include "posix/gossip_poller.hpp"
#include "posix/lsd.hpp"
#include "posix/sharded_lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix_test_util.hpp"
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

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One admin-socket round trip, driven through `loop` so the daemon can
/// answer: send a command line, collect until the blank-line frame end.
std::string admin_command(EpollEngine& loop, const std::string& path,
                          const std::string& cmd) {
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  EXPECT_TRUE(rc == 0 || errno == EINPROGRESS || errno == EAGAIN);
  std::string out;
  const std::string line = cmd + "\n";
  std::size_t sent = 0;
  wait_until(loop, [&] {
    if (sent < line.size()) {
      const ssize_t n =
          ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
      if (sent < line.size()) return false;
    }
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out.find("\n\n") != std::string::npos;
  });
  ::close(fd);
  return out;
}

// --- Proactive mid-transfer migration over real sockets -------------------

TEST(HealthPosixMigration, ResumesFromSinkFrontierWithContentIntact) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  // Large enough that kernel socket buffers cannot swallow the whole
  // stream: the migration must land mid-transfer or there is nothing to
  // prove about the seam.
  const std::uint64_t kBytes = 32 * util::kMiB;
  const std::uint64_t kSeed = 7701;

  Lsd depot_a(loop, LsdConfig{});
  Lsd depot_b(loop, LsdConfig{});
  PosixSinkServer sink(loop, InetAddress::loopback(0), /*expect_header=*/true,
                       kSeed);
  sink.set_adopt_migrations(true);

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot_a.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = kBytes;
  cfg.payload_seed = kSeed;
  cfg.resumable = true;  // migration rides the resume machinery
  PosixSource source(loop, cfg);
  bool src_done = false;
  bool src_ok = false;
  source.on_done = [&](bool ok) {
    src_ok = ok;
    src_done = true;
  };
  source.start();

  // Wait until the stream is demonstrably mid-transfer, then re-select:
  // abandon depot A for depot B, resuming from the sink's acknowledged
  // frontier — the only safe floor (the source's own SIOCOUTQ floor may
  // include bytes the dying chain acked but will never deliver).
  ASSERT_TRUE(wait_until(
      loop, [&] { return sink.bytes_received() > util::kMiB; }, 20.0));
  const std::uint64_t floor = sink.session_frontier(source.session());
  ASSERT_GT(floor, 0u);
  ASSERT_LT(floor, kBytes);
  ASSERT_TRUE(source.migrate({InetAddress::loopback(depot_b.port())}, floor));
  EXPECT_EQ(source.migrations(), 1u);

  ASSERT_TRUE(wait_until(loop, [&] { return done; }, 60.0));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.payload_bytes, kBytes);
  EXPECT_TRUE(sink.session_completed(source.session()));
  EXPECT_EQ(sink.session_frontier(source.session()), kBytes);
  // The stitched stream's digest equals the whole payload's: across the
  // migration seam no byte was lost, duplicated, or reordered.
  EXPECT_EQ(sink.session_digest(source.session()),
            core::stream_digest(kSeed, kBytes));
  // Depot B carried the migrate leg.
  EXPECT_GT(depot_b.stats().bytes_relayed, 0u);
  ASSERT_TRUE(wait_until(loop, [&] { return src_done; }, 10.0));
  EXPECT_TRUE(src_ok);
}

TEST(HealthPosixMigration, SinkRefusesMigrationGap) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t kBytes = 8 * util::kMiB;
  const std::uint64_t kSeed = 7702;

  Lsd depot(loop, LsdConfig{});
  PosixSinkServer sink(loop, InetAddress::loopback(0), /*expect_header=*/true,
                       kSeed);
  sink.set_adopt_migrations(true);
  bool done = false;
  sink.on_complete = [&](const SinkResult&) { done = true; };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = kBytes;
  cfg.payload_seed = kSeed;
  cfg.resumable = true;
  PosixSource source(loop, cfg);
  bool src_done = false;
  bool src_ok = true;
  source.on_done = [&](bool ok) {
    src_ok = ok;
    src_done = true;
  };
  source.start();

  ASSERT_TRUE(wait_until(
      loop, [&] { return sink.bytes_received() > 256 * util::kKiB; }, 20.0));
  // Migrate from a floor far beyond anything delivered: the claimed-acked
  // bytes would be missing from the stitched stream, so the sink must
  // refuse the connection rather than paper over the gap.
  const std::uint64_t bogus_floor = kBytes - util::kKiB;
  ASSERT_GT(bogus_floor, sink.session_frontier(source.session()));
  ASSERT_TRUE(
      source.migrate({InetAddress::loopback(depot.port())}, bogus_floor));

  // The refused connection carries kStatusFail back; with no reconnect
  // budget the source gives up.
  ASSERT_TRUE(wait_until(loop, [&] { return src_done; }, 20.0));
  EXPECT_FALSE(src_ok);
  EXPECT_FALSE(done);  // the session never completed, so no verdict fired
  EXPECT_FALSE(sink.session_completed(source.session()));
  EXPECT_LT(sink.session_frontier(source.session()), bogus_floor);
}

TEST(HealthPosixMigration, MigrateDuringReconnectBackoff) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t kBytes = 2 * util::kMiB;
  const std::uint64_t kSeed = 7703;

  // A port nothing listens on: every dial to it is refused.
  std::uint16_t dead_port = 0;
  {
    Lsd gone(loop, LsdConfig{});
    dead_port = gone.port();
  }
  Lsd depot(loop, LsdConfig{});
  PosixSinkServer sink(loop, InetAddress::loopback(0), /*expect_header=*/true,
                       kSeed);
  sink.set_adopt_migrations(true);
  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(dead_port)};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = kBytes;
  cfg.payload_seed = kSeed;
  cfg.resumable = true;
  cfg.reconnect_backoff = [] {
    return std::optional<std::chrono::milliseconds>(
        std::chrono::milliseconds(500));
  };
  PosixSource source(loop, cfg);
  bool src_ok = false;
  source.on_done = [&](bool ok) { src_ok = ok; };
  source.start();

  // The dead first hop puts the source into its reconnect backoff; migrate
  // from there onto the live depot.
  ASSERT_TRUE(wait_until(loop, [&] { return source.resumes() >= 1; }, 10.0));
  ASSERT_TRUE(source.migrate({InetAddress::loopback(depot.port())}, 0));
  EXPECT_EQ(source.migrations(), 1u);

  ASSERT_TRUE(wait_until(loop, [&] { return done && source.finished(); },
                         30.0));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.payload_bytes, kBytes);
  EXPECT_TRUE(sink.session_completed(source.session()));
  EXPECT_TRUE(src_ok);
}

TEST(HealthPosixMigration, NonResumableSourceRefusesMigrate) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t kBytes = 256 * util::kKiB;
  const std::uint64_t kSeed = 7704;

  Lsd depot(loop, LsdConfig{});
  PosixSinkServer sink(loop, InetAddress::loopback(0), /*expect_header=*/true,
                       kSeed);
  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = kBytes;
  cfg.payload_seed = kSeed;
  PosixSource source(loop, cfg);
  bool src_done = false;
  bool src_ok = false;
  source.on_done = [&](bool ok) {
    src_ok = ok;
    src_done = true;
  };
  source.start();
  EXPECT_FALSE(source.migrate({InetAddress::loopback(depot.port())}, 0));
  EXPECT_EQ(source.migrations(), 0u);
  ASSERT_TRUE(wait_until(loop, [&] { return src_done; }, 20.0));
  EXPECT_TRUE(src_ok);
}

// --- Daemon-side HealthBoard through Lsd ----------------------------------

TEST(HealthPosixBoard, CompletedRelayPromotesNextHop) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  health::HealthBoard board;
  Lsd depot(loop, LsdConfig{});
  depot.set_health_board(&board);
  PosixSinkServer sink(loop, InetAddress::loopback(0), /*expect_header=*/true,
                       31);
  bool done = false;
  sink.on_complete = [&](const SinkResult& r) {
    EXPECT_TRUE(r.verified);
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 512 * util::kKiB;
  cfg.payload_seed = 31;
  PosixSource source(loop, cfg);
  source.on_done = [](bool) {};
  source.start();
  ASSERT_TRUE(wait_until(loop, [&] { return done; }, 10.0));
  // The depot dialed the sink and the relay completed cleanly: exactly one
  // healthy row, named by the dialed address, carrying a success and a
  // delivered-rate sample.
  ASSERT_TRUE(wait_until(loop, [&] { return !board.rows().empty(); }, 5.0));
  const auto rows = board.rows();
  ASSERT_EQ(rows.size(), 1u);
  const std::string sink_name = InetAddress::loopback(sink.port()).to_string();
  EXPECT_EQ(rows[0].name, sink_name);
  EXPECT_EQ(rows[0].state, health::DepotState::kHealthy);
  EXPECT_GE(rows[0].successes, 1u);
  EXPECT_GT(rows[0].ewma_bps, 0.0);
  EXPECT_EQ(rows[0].failures, 0u);
}

TEST(HealthPosixBoard, DialFailuresDemoteNextHop) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  health::HealthBoard board;
  Lsd depot(loop, LsdConfig{});
  depot.set_health_board(&board);

  // Reserve a port nobody listens on by binding-and-closing a listener.
  std::uint16_t dead_port = 0;
  {
    EpollEngine probe_loop;
    PosixSinkServer probe(probe_loop, InetAddress::loopback(0), false, 1);
    dead_port = probe.port();
  }
  const InetAddress dead = InetAddress::loopback(dead_port);

  for (int i = 0; i < 4; ++i) {
    PosixSourceConfig cfg;
    cfg.route = {InetAddress::loopback(depot.port()), dead};
    cfg.destination = dead;  // never reached
    cfg.payload_bytes = util::kKiB;
    cfg.payload_seed = 1;
    bool finished = false;
    PosixSource source(loop, cfg);
    source.on_done = [&](bool ok) {
      EXPECT_FALSE(ok);
      finished = true;
    };
    source.start();
    ASSERT_TRUE(wait_until(loop, [&] { return finished; }, 10.0));
  }
  const health::DepotHealth row = board.row(dead.to_string());
  EXPECT_GE(row.failures, 4u);
  // Four straight dial failures burn through the whole hysteresis ladder.
  EXPECT_GE(static_cast<int>(row.state),
            static_cast<int>(health::DepotState::kDegraded));
  EXPECT_LT(row.score, board.config().demote_degraded);
  EXPECT_FALSE(board.admissible(dead.to_string()));
}

// --- Admin socket: per-depot rows and the gossip command ------------------

TEST(HealthPosixAdmin, HealthReportsDepotRowsAndGossipServesThem) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  health::HealthBoard board;
  Lsd depot(loop, LsdConfig{});
  depot.set_health_board(&board);
  const std::string sock_path = temp_path("health_admin.sock");
  std::unique_ptr<posix::AdminServer> admin;
  try {
    admin = std::make_unique<posix::AdminServer>(loop, sock_path, depot);
  } catch (const std::exception& e) {
    GTEST_SKIP() << "unix sockets unavailable in sandbox: " << e.what();
  }

  // Before any observation the historical health JSON is untouched and
  // gossip serves its explicit empty frame.
  std::string health_json = admin_command(loop, sock_path, "health");
  EXPECT_EQ(health_json.find("depots"), std::string::npos);
  EXPECT_NE(admin_command(loop, sock_path, "gossip").find("# none"),
            std::string::npos);

  PosixSinkServer sink(loop, InetAddress::loopback(0), /*expect_header=*/true,
                       32);
  bool done = false;
  sink.on_complete = [&](const SinkResult&) { done = true; };
  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 64 * util::kKiB;
  cfg.payload_seed = 32;
  PosixSource source(loop, cfg);
  source.on_done = [](bool) {};
  source.start();
  ASSERT_TRUE(wait_until(loop, [&] { return done; }, 10.0));
  ASSERT_TRUE(wait_until(loop, [&] { return !board.rows().empty(); }, 5.0));

  const std::string sink_name = InetAddress::loopback(sink.port()).to_string();
  health_json = admin_command(loop, sock_path, "health");
  EXPECT_NE(health_json.find("\"depots\":[{\"name\":\"" + sink_name + "\""),
            std::string::npos);
  EXPECT_NE(health_json.find("\"state\":\"healthy\""), std::string::npos);

  const std::string gossip = admin_command(loop, sock_path, "gossip");
  const auto rows = health::decode_gossip(gossip);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, sink_name);
  EXPECT_GE(rows[0].successes, 1u);
}

TEST(HealthPosixAdmin, GossipPollerMergesPeerJudgement) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  // Peer daemon A: its board has condemned a depot the hard way.
  health::HealthBoard board_a;
  Lsd depot_a(loop, LsdConfig{});
  depot_a.set_health_board(&board_a);
  const std::string sock_path = temp_path("health_gossip.sock");
  std::unique_ptr<posix::AdminServer> admin;
  try {
    admin = std::make_unique<posix::AdminServer>(loop, sock_path, depot_a);
  } catch (const std::exception& e) {
    GTEST_SKIP() << "unix sockets unavailable in sandbox: " << e.what();
  }
  const std::uint64_t now = steady_ms();
  for (unsigned i = 0; i < 5; ++i) {
    board_a.observe_failure("10.9.9.9:4000", now + i);
  }
  ASSERT_GE(static_cast<int>(board_a.state("10.9.9.9:4000")),
            static_cast<int>(health::DepotState::kSuspect));

  // Local daemon B: knows nothing of that depot until gossip lands.
  health::HealthBoard board_b;
  posix::GossipPollerConfig gcfg;
  gcfg.peers = {sock_path};
  gcfg.interval = std::chrono::milliseconds(50);
  gcfg.weight = 0.8;
  posix::GossipPoller poller(loop, {&board_b}, gcfg);

  ASSERT_TRUE(wait_until(
      loop,
      [&] {
        return poller.polls_completed() >= 1 && poller.rows_merged() >= 1;
      },
      10.0, [&] { poller.poll(); }));
  // Judgement blended; counters NOT copied (they would double-count once
  // gossip cycles back).
  const health::DepotHealth merged = board_b.row("10.9.9.9:4000");
  EXPECT_LT(merged.score, 0.6);
  EXPECT_EQ(merged.failures, 0u);
  EXPECT_EQ(poller.polls_failed(), 0u);
}

TEST(HealthPosixAdmin, GossipPollerSurvivesMissingPeer) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  health::HealthBoard board;
  posix::GossipPollerConfig gcfg;
  gcfg.peers = {temp_path("no_such_admin.sock")};
  gcfg.interval = std::chrono::milliseconds(20);
  posix::GossipPoller poller(loop, {&board}, gcfg);
  ASSERT_TRUE(wait_until(
      loop, [&] { return poller.polls_failed() >= 2; }, 10.0,
      [&] { poller.poll(); }));
  EXPECT_EQ(poller.polls_completed(), 0u);
  EXPECT_TRUE(board.rows().empty());
}

// --- Sharded: pessimistic cross-shard merge -------------------------------

TEST(HealthPosixSharded, AdminHealthMergesShardRows) {
  REQUIRE_LOOPBACK();
  posix::ShardedLsdConfig scfg;
  scfg.shards = 2;
  scfg.health_plane = true;
  std::unique_ptr<posix::ShardedLsd> daemon;
  try {
    daemon = std::make_unique<posix::ShardedLsd>(scfg);
  } catch (const std::exception& e) {
    GTEST_SKIP() << "sharded bind unavailable in sandbox: " << e.what();
  }
  ASSERT_EQ(daemon->health_boards().size(), 2u);

  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), /*expect_header=*/true,
                       33);
  std::size_t completed = 0;
  sink.on_complete = [&](const SinkResult& r) {
    EXPECT_TRUE(r.verified);
    ++completed;
  };
  // Several sessions so the kernel has a chance to spread accepts across
  // both shards; the merge is correct either way.
  constexpr std::size_t kSessions = 6;
  std::vector<std::unique_ptr<PosixSource>> sources;
  for (std::size_t i = 0; i < kSessions; ++i) {
    PosixSourceConfig cfg;
    cfg.route = {InetAddress::loopback(daemon->port())};
    cfg.destination = InetAddress::loopback(sink.port());
    cfg.payload_bytes = 128 * util::kKiB;
    cfg.payload_seed = 33;
    auto src = std::make_unique<PosixSource>(loop, cfg);
    src->on_done = [](bool) {};
    src->start();
    sources.push_back(std::move(src));
  }
  ASSERT_TRUE(wait_until(loop, [&] { return completed == kSessions; }, 30.0));

  const std::string sink_name = InetAddress::loopback(sink.port()).to_string();
  // The shards observe asynchronously; poll until the fleet view carries
  // every completion (merge_rows sums counters across shard boards).
  ASSERT_TRUE(wait_until(
      loop,
      [&] {
        const auto h = daemon->admin_health();
        return h.depots.size() == 1 && h.depots[0].name == sink_name &&
               h.depots[0].successes == kSessions;
      },
      10.0));
  const auto rows = daemon->admin_health().depots;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].state, health::DepotState::kHealthy);
}

}  // namespace
}  // namespace lsl::test
