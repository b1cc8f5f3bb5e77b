// The pooled-memory / zero-copy data path on real sockets: the splice
// fast path versus the chunk-pool fallback (payload parity at >= 64 MiB,
// where kernel buffers cannot swallow the stream), mid-stream fault
// injection while splice is engaged, buffer release at graveyard entry,
// and pool-pressure admission control.
#include <gtest/gtest.h>

#include <sys/epoll.h>

#include <chrono>
#include <functional>
#include <optional>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "fault/policy.hpp"
#include "fault/spec.hpp"
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

bool drive(EpollEngine& loop, const bool& done, double timeout_s = 60.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  return done;
}

/// Drive until an arbitrary condition holds (pool levels, stats counters).
bool drive_until(EpollEngine& loop, const std::function<bool()>& cond,
                 double timeout_s = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(20);
  }
  return cond();
}

fault::FaultPlan plan_of(const std::string& spec) {
  std::string err;
  const auto plan = fault::parse_fault_spec(spec, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  return plan.value_or(fault::FaultPlan{});
}

/// A destination that accepts connections and then never reads: the far
/// end of a wedged path, for exercising backpressure deterministically.
class BlackholeServer {
 public:
  explicit BlackholeServer(EpollEngine& loop) : loop_(loop) {
    listener_ = posix::listen_tcp(InetAddress::loopback(0), 16, &port_);
    if (!listener_.valid()) return;
    loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) {
      while (true) {
        engine::Fd conn = posix::accept_connection(listener_.get());
        if (!conn.valid()) break;
        conns_.push_back(std::move(conn));
      }
    });
  }
  ~BlackholeServer() {
    if (listener_.valid()) loop_.remove(listener_.get());
  }
  std::uint16_t port() const { return port_; }

 private:
  EpollEngine& loop_;
  engine::Fd listener_;
  std::uint16_t port_ = 0;
  std::vector<engine::Fd> conns_;
};

/// Relay `bytes` through one depot and return (verified, depot stats).
struct RunResult {
  bool verified = false;
  std::uint64_t payload_bytes = 0;
  posix::LsdStats stats;
  buf::PoolStats pool;
};

RunResult relay_once(std::uint64_t bytes, bool use_splice,
                     std::uint32_t seed) {
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, seed);
  LsdConfig dcfg;
  dcfg.buffer_bytes = 256 * util::kKiB;
  dcfg.use_splice = use_splice;
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
  cfg.payload_bytes = bytes;
  cfg.payload_seed = seed;
  PosixSource src(loop, cfg);
  src.start();

  RunResult out;
  if (!drive(loop, done)) return out;
  // Let the depot see the session through (reverse status flush).
  drive_until(loop,
              [&] { return depot.stats().sessions_completed == 1; }, 5.0);
  out.verified = result.verified;
  out.payload_bytes = result.payload_bytes;
  out.stats = depot.stats();
  out.pool = depot.pool().stats();
  return out;
}

// Large enough that the fault tier's mid-stream events land mid-stream;
// also far beyond what loopback kernel buffers can absorb, so both paths
// genuinely carry the bytes.
constexpr std::uint64_t kParityBytes = 64 * util::kMiB;

TEST(PosixSplice, FastPathCarriesPayload) {
  REQUIRE_LOOPBACK();
  const RunResult r = relay_once(kParityBytes, /*use_splice=*/true, 11);
  ASSERT_TRUE(r.verified);
  EXPECT_EQ(r.payload_bytes, kParityBytes);
  EXPECT_GE(r.stats.bytes_relayed, kParityBytes);
  // The fast path must actually engage: the bulk of a healthy loopback
  // stream moves fd -> fd without crossing user space.
  EXPECT_GT(r.stats.bytes_spliced, 0u);
  EXPECT_LE(r.stats.bytes_spliced, r.stats.bytes_relayed);
}

TEST(PosixSplice, ChunkFallbackParity) {
  REQUIRE_LOOPBACK();
  // Same payload, same seed, splice disabled: the pooled-chunk path must
  // produce the identical verified stream, with zero spliced bytes.
  const RunResult r = relay_once(kParityBytes, /*use_splice=*/false, 11);
  ASSERT_TRUE(r.verified);
  EXPECT_EQ(r.payload_bytes, kParityBytes);
  EXPECT_GE(r.stats.bytes_relayed, kParityBytes);
  EXPECT_EQ(r.stats.bytes_spliced, 0u);
  // And it really went through the pool.
  EXPECT_GT(r.pool.peak_bytes, 0u);
  EXPECT_GT(r.pool.reuses, 0u);
}

// Mid-stream upstream reset while the splice path is engaged: the parked
// session's pipe bytes must be salvaged, the resume must land, and the
// sink must still verify end to end — parity with the chaos-tier
// kill-and-resume cycle, on the zero-copy path.
TEST(PosixSplice, MidStreamResetResumesOnFastPath) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;

  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 13);
  bool sink_done = false;
  SinkResult sink_res;
  sink.on_complete = [&](const SinkResult& r) {
    sink_res = r;
    sink_done = true;
  };

  // The shipping daemon, one shard, with the reset in its fault plan.
  posix::ShardedLsdConfig dcfg;
  dcfg.base.buffer_bytes = 256 * util::kKiB;
  dcfg.base.resume_grace = std::chrono::milliseconds(3000);
  dcfg.base.use_splice = true;
  dcfg.shards = 1;
  dcfg.fault_plan = plan_of("reset:depot=d1,at_bytes=8388608");
  posix::ShardedLsd depot(dcfg);

  fault::RetryConfig rcfg;
  rcfg.base_delay = 20 * util::kMillisecond;
  fault::RoutePolicy policy = fixed_route_policy(rcfg, 13);

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(depot.port())};
  scfg.destination = InetAddress::loopback(sink.port());
  scfg.payload_bytes = kParityBytes;
  scfg.payload_seed = 13;
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
  EXPECT_EQ(sink_res.payload_bytes, kParityBytes);
  EXPECT_GE(source.resumes(), 1u);
  // The boards publish a loop turn behind the event.
  ASSERT_TRUE(drive_until(
      loop, [&] { return depot.stats().sessions_completed == 1; }, 5.0));
  EXPECT_EQ(depot.faults_injected(), 1u);
  EXPECT_EQ(depot.stats().sessions_parked, 1u);
  EXPECT_EQ(depot.stats().sessions_resumed, 1u);
  EXPECT_GT(depot.stats().bytes_spliced, 0u);
}

// Regression for the graveyard leak: a finished relay's chunks must be
// back in the pool the moment it enters the graveyard — freed memory is
// for live sessions, not for the deferred delete to hold hostage.
TEST(PosixSplice, GraveyardEntryReleasesPoolBuffers) {
  REQUIRE_LOOPBACK();
  const RunResult r = relay_once(8 * util::kMiB, /*use_splice=*/false, 17);
  ASSERT_TRUE(r.verified);
  EXPECT_GT(r.pool.peak_bytes, 0u);       // the session really held chunks
  EXPECT_EQ(r.pool.in_use_bytes, 0u);     // ...and returned every one
  EXPECT_GT(r.pool.free_chunks, 0u);      // recycled, not leaked
}

// Admission control: once a wedged downstream pins the pool over its high
// watermark, new sessions are refused at accept (RST, which RoutePolicy
// backs off on) instead of deepening the overcommit.
TEST(PosixSplice, PoolPressureRefusesNewSessions) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  BlackholeServer blackhole(loop);
  ASSERT_NE(blackhole.port(), 0);

  LsdConfig dcfg;
  dcfg.buffer_bytes = 1 * util::kMiB;
  dcfg.use_splice = false;  // pressure lives in the chunk pool
  dcfg.pool.chunk_bytes = 64 * util::kKiB;
  dcfg.pool.budget_bytes = 128 * util::kKiB;  // two chunks, daemon-wide
  dcfg.pool.low_watermark = 0.25;
  dcfg.pool.high_watermark = 0.5;
  Lsd depot(loop, dcfg);

  PosixSourceConfig scfg;
  scfg.route = {InetAddress::loopback(depot.port())};
  scfg.destination = InetAddress::loopback(blackhole.port());
  scfg.payload_bytes = 64 * util::kMiB;  // far beyond kernel buffering
  scfg.payload_seed = 19;
  PosixSource wedged(loop, scfg);
  wedged.start();

  // The blackhole never reads; the relay buffers until the pool crosses
  // its high watermark and stops (TCP pushes back on the source).
  ASSERT_TRUE(drive_until(
      loop, [&] { return depot.pool().under_pressure(); }, 20.0))
      << "pool never reached its high watermark";
  // Receive-window autotuning on loopback lets the wedged connection
  // drain in trickles, so pressure can flap; freeze the pump (the "slow
  // depot" fault) to pin the ring full while we probe admission.
  depot.set_stalled(true);
  ASSERT_TRUE(depot.pool().under_pressure());

  // A second session now bounces at accept.
  PosixSource refused(loop, scfg);
  bool refused_done = false;
  refused.on_done = [&](bool) { refused_done = true; };
  refused.start();
  ASSERT_TRUE(drive_until(
      loop, [&] { return depot.stats().sessions_refused >= 1; }, 10.0));
  EXPECT_EQ(depot.stats().sessions_accepted, 1u);
  drive(loop, refused_done, 5.0);  // the refused source observes the RST
}

}  // namespace
}  // namespace lsl::test
