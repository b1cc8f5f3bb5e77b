// Stripe tier, real-socket half: a StripedPosixSource striping one session
// over several in-process lsd daemons into the reassembling
// PosixSinkServer, lane-death recovery (fault-plan crashes on one-shard
// ShardedLsd daemons and a real subprocess SIGKILL), and the admin
// `health` endpoint's "stripes" field.
// Carries the `stripe` ctest label; scripts/check.sh runs the label as its
// own column, plain and under TSan.
#include <gtest/gtest.h>

#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/spec.hpp"
#include "posix/admin.hpp"
#include "posix/client.hpp"
#include "posix/lsd.hpp"
#include "posix/sharded_lsd.hpp"
#include "posix/socket_util.hpp"
#include "posix/striped_client.hpp"
#include "posix_test_util.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

using engine::EpollEngine;
using posix::InetAddress;
using posix::Lsd;
using posix::LsdConfig;
using posix::PosixSinkServer;
using posix::ShardedLsd;
using posix::ShardedLsdConfig;
using posix::SinkResult;
using posix::StripedPosixSource;
using posix::StripedPosixSourceConfig;

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

/// A one-shard daemon — the runtime lsd_relay ships — relaying on its own
/// thread through a 256 KiB per-session buffer; a nonempty `spec` is its
/// fault plan.
std::unique_ptr<ShardedLsd> lane_depot(const std::string& spec = "") {
  ShardedLsdConfig cfg;
  cfg.base.buffer_bytes = 256 * util::kKiB;
  cfg.shards = 1;
  if (!spec.empty()) cfg.fault_plan = plan_of(spec);
  return std::make_unique<ShardedLsd>(cfg);
}

struct StripedHarness {
  EpollEngine& loop;
  PosixSinkServer sink;
  bool sink_done = false;
  SinkResult sink_res;
  std::unique_ptr<StripedPosixSource> source;
  bool src_done = false;
  bool src_ok = false;

  StripedHarness(EpollEngine& l, std::uint64_t seed)
      : loop(l), sink(l, InetAddress::loopback(0), true, seed) {
    sink.on_complete = [this](const SinkResult& r) {
      sink_res = r;
      sink_done = true;
    };
  }

  void launch(StripedPosixSourceConfig cfg) {
    cfg.destination = InetAddress::loopback(sink.port());
    source = std::make_unique<StripedPosixSource>(loop, std::move(cfg));
    source->on_done = [this](bool ok) {
      src_ok = ok;
      src_done = true;
    };
    source->start();
  }
};

// Three lanes through three independent daemons: the sink must group the
// v3 connections by session id, reassemble, and verify the merged MD5.
TEST(StripePosix, StripedTransferReassemblesAndVerifies) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 8 * util::kMiB;
  StripedHarness h(loop, 61);

  std::vector<std::unique_ptr<Lsd>> depots;
  StripedPosixSourceConfig cfg;
  for (int i = 0; i < 3; ++i) {
    depots.push_back(std::make_unique<Lsd>(loop, LsdConfig{}));
    cfg.lane_routes.push_back({InetAddress::loopback(depots.back()->port())});
  }
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 61;
  h.launch(std::move(cfg));

  ASSERT_TRUE(wait_until(
      loop, [&] { return h.sink_done && h.src_done; }, 30.0));
  EXPECT_TRUE(h.src_ok);
  EXPECT_TRUE(h.sink_res.verified);
  EXPECT_EQ(h.sink_res.payload_bytes, bytes);
  EXPECT_EQ(h.source->stripes_lost(), 0u);
  EXPECT_EQ(h.source->retransmitted_bytes(), 0u);
  // Every daemon relayed exactly one lane.
  for (const auto& d : depots) {
    EXPECT_EQ(d->stats().sessions_completed, 1u);
  }
}

// A fault-plan crash kills one lane's daemon mid-transfer; the source
// re-stripes the lane onto the spare chain and the merge still verifies.
// The conservative posix resume resends the whole lane (docs/STRIPING.md),
// so retransmitted bytes equal one full lane.
TEST(StripePosix, CrashedLaneRestripesOntoSpareChain) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  // Big enough that the crash at 2 MiB lands with lane bytes still in
  // flight even with kernel socket buffering.
  const std::uint64_t bytes = 48 * util::kMiB;
  StripedHarness h(loop, 67);

  // Lane 1's daemon crashes for good once it has relayed 2 MiB.
  std::vector<std::unique_ptr<ShardedLsd>> depots;
  StripedPosixSourceConfig cfg;
  for (int i = 0; i < 3; ++i) {
    depots.push_back(
        lane_depot(i == 1 ? "crash:depot=d1,at_bytes=2097152" : ""));
    cfg.lane_routes.push_back({InetAddress::loopback(depots.back()->port())});
  }
  auto spare = std::make_unique<Lsd>(loop, LsdConfig{});
  cfg.spare_routes.push_back({InetAddress::loopback(spare->port())});
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 67;
  h.launch(std::move(cfg));

  ASSERT_TRUE(wait_until(
      loop, [&] { return h.sink_done && h.src_done; }, 60.0));
  EXPECT_TRUE(h.src_ok);
  EXPECT_TRUE(h.sink_res.verified);
  EXPECT_EQ(h.sink_res.payload_bytes, bytes);
  EXPECT_EQ(h.source->stripes_lost(), 1u);
  EXPECT_EQ(h.source->stripes_recovered(), 1u);
  EXPECT_GT(h.source->retransmitted_bytes(), 0u);
  EXPECT_EQ(depots[1]->faults_injected(), 1u);
  EXPECT_EQ(spare->stats().sessions_completed, 1u);
}

// With redundancy 1, a crashed lane is absorbed outright: the surviving
// lanes already carry its logical stripes, so recovery moves zero bytes —
// the issue's acceptance bar, real-socket half.
TEST(StripePosix, RedundancyAbsorbsCrashedLaneWithZeroRetransmit) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 32 * util::kMiB;
  StripedHarness h(loop, 71);

  // Lane 2's daemon crashes for good once it has relayed 2 MiB.
  std::vector<std::unique_ptr<ShardedLsd>> depots;
  StripedPosixSourceConfig cfg;
  for (int i = 0; i < 4; ++i) {
    depots.push_back(
        lane_depot(i == 2 ? "crash:depot=d1,at_bytes=2097152" : ""));
    cfg.lane_routes.push_back({InetAddress::loopback(depots.back()->port())});
  }
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 71;
  cfg.redundancy = 1;
  h.launch(std::move(cfg));

  ASSERT_TRUE(wait_until(
      loop, [&] { return h.sink_done && h.src_done; }, 60.0));
  EXPECT_TRUE(h.src_ok);
  EXPECT_TRUE(h.sink_res.verified);
  EXPECT_EQ(h.source->stripes_lost(), 1u);
  EXPECT_EQ(h.source->stripes_recovered(), 0u);
  EXPECT_EQ(h.source->retransmitted_bytes(), 0u);
  EXPECT_EQ(depots[2]->faults_injected(), 1u);
}

// The admin `health` endpoint reports live striped relays while lanes are
// in flight, and drops the field (historical output) once they drain.
TEST(StripePosix, AdminHealthReportsLiveStripeLanes) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  const std::uint64_t bytes = 48 * util::kMiB;
  StripedHarness h(loop, 73);

  const auto depot = lane_depot();
  const std::string sock_path = ::testing::TempDir() + "/stripe_admin.sock";
  posix::AdminServer admin(loop, sock_path, *depot);

  // All three lanes ride the same daemon: disjointness is the caller's
  // routing choice, not a protocol requirement, and one daemon makes the
  // census deterministic (3 striped relays while the session runs).
  StripedPosixSourceConfig cfg;
  for (int i = 0; i < 3; ++i) {
    cfg.lane_routes.push_back({InetAddress::loopback(depot->port())});
  }
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 73;
  h.launch(std::move(cfg));

  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->admin_health().stripes == 3; }, 30.0));

  const auto query = [&loop](const std::string& path) -> std::string {
    const int fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return {};
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0 &&
        errno != EINPROGRESS && errno != EAGAIN) {
      ::close(fd);
      return {};
    }
    const std::string line = "health\n";
    if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(line.size())) {
      ::close(fd);
      return {};
    }
    std::string resp;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (resp.find("\n\n") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline) {
      loop.run_once(20);
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
        resp.append(buf, static_cast<std::size_t>(n));
      }
      if (n == 0) break;
    }
    ::close(fd);
    return resp;
  };

  const std::string live = query(sock_path);
  EXPECT_NE(live.find("\"stripes\":3"), std::string::npos) << live;

  ASSERT_TRUE(wait_until(
      loop, [&] { return h.sink_done && h.src_done; }, 60.0));
  EXPECT_TRUE(h.src_ok);
  EXPECT_TRUE(h.sink_res.verified);

  // Lanes drained: the conditional field disappears entirely.
  ASSERT_TRUE(wait_until(
      loop, [&] { return depot->admin_health().stripes == 0; }, 5.0));
  const std::string idle = query(sock_path);
  ASSERT_FALSE(idle.empty());
  EXPECT_EQ(idle.find("\"stripes\""), std::string::npos) << idle;
}

#ifdef LSD_RELAY_BIN
// ---------------------------------------------------------------------------
// The acceptance chaos scenario on real processes: lanes ride separate
// lsd_relay daemons, one is SIGKILLed mid-transfer (no drain, no goodbye),
// and the session must still complete with the MD5 intact by re-striping
// the dead lane onto a spare daemon.

/// Wait until the daemon's listener completes a TCP handshake.
bool daemon_ready(std::uint16_t port) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    engine::Fd probe = posix::connect_tcp(InetAddress::loopback(port));
    if (probe.valid()) {
      pollfd pf{probe.get(), POLLOUT, 0};
      if (::poll(&pf, 1, 200) == 1 &&
          posix::connect_result(probe.get()) == 0) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(StripePosix, SigkilledDaemonLaneRecoversViaSpareProcess) {
  REQUIRE_LOOPBACK();
  std::vector<SpawnedDaemon> daemons;
  for (int i = 0; i < 4; ++i) {  // 3 lanes + 1 spare
    daemons.push_back(spawn_daemon(LSD_RELAY_BIN));
  }
  for (const SpawnedDaemon& d : daemons) {
    ASSERT_TRUE(daemon_ready(d.port)) << "port " << d.port;
  }

  EpollEngine loop;
  // Big enough that a kill ~0.2 s in is mid-transfer on a fast loopback.
  const std::uint64_t bytes = 96 * util::kMiB;
  StripedHarness h(loop, 79);

  StripedPosixSourceConfig cfg;
  for (int i = 0; i < 3; ++i) {
    cfg.lane_routes.push_back({InetAddress::loopback(daemons[i].port)});
  }
  cfg.spare_routes.push_back({InetAddress::loopback(daemons[3].port)});
  cfg.payload_bytes = bytes;
  cfg.payload_seed = 79;
  h.launch(std::move(cfg));

  // Let the lanes get properly mid-flight, then SIGKILL lane 1's daemon.
  ASSERT_TRUE(wait_until(
      loop, [&] { return h.sink.bytes_received() > 4 * util::kMiB; }, 30.0));
  ASSERT_FALSE(h.src_done);  // the kill lands mid-transfer, not after
  reap_daemon(daemons[1], SIGKILL);

  ASSERT_TRUE(wait_until(
      loop, [&] { return h.sink_done && h.src_done; }, 120.0));
  EXPECT_TRUE(h.src_ok);
  EXPECT_TRUE(h.sink_res.verified);
  EXPECT_EQ(h.sink_res.payload_bytes, bytes);
  EXPECT_EQ(h.source->stripes_lost(), 1u);
  EXPECT_EQ(h.source->stripes_recovered(), 1u);
  EXPECT_GT(h.source->retransmitted_bytes(), 0u);

  for (SpawnedDaemon& d : daemons) reap_daemon(d, SIGTERM);
}
#endif  // LSD_RELAY_BIN

}  // namespace
}  // namespace lsl::test
