// Allocation guard for the simulator's packet path.
//
// The binary replaces the global operator new with a counting one, runs a
// virtual-payload LSL transfer through one depot on a loss-free chain, and
// counts heap allocations over the middle of the transfer, after every
// queue, ring and event slot has reached its working size. A packet must
// cost none: no SACK option vector, no reassembly map node for an in-order
// segment, no deque block for an in-flight segment record. Whole-run setup
// (topology, sockets, the session header) may allocate; the steady state
// may not.
//
// It is its own binary because the replacement operator new is global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "exp/scenarios.hpp"
#include "lsl/apps.hpp"
#include "lsl/depot.hpp"
#include "lsl/directory.hpp"
#include "tcp/stack.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lsl {
namespace {

constexpr sim::PortNum kSinkPort = 5001;
constexpr sim::PortNum kDepotPort = 6001;
constexpr std::uint64_t kBytes = 16 * util::kMiB;

TEST(AllocGuard, CountingOperatorNewSeesAllocations) {
  const std::uint64_t before = g_news.load();
  auto p = std::make_unique<int>(7);
  EXPECT_EQ(g_news.load() - before, 1u);
  EXPECT_EQ(*p, 7);
}

TEST(AllocGuard, VirtualTransferThroughDepotAllocatesNothingPerPacket) {
  exp::ChainParams cp;
  cp.depots = 1;
  cp.total_loss = 0.0;
  exp::Scenario sc = exp::build_chain(cp, /*seed=*/3);
  sim::Network& net = *sc.net;

  tcp::TcpConfig tcpc;
  tcpc.carry_data = false;
  tcpc.initial_ssthresh = sc.initial_ssthresh;
  // A 64 KiB window caps every connection's flight from the start, so the
  // rings that hold it stop growing within the warm-up.
  tcpc.send_buffer = 64 * util::kKiB;
  tcpc.recv_buffer = 64 * util::kKiB;
  tcp::TcpStack src_stack(net, *sc.src, tcpc);
  tcp::TcpStack dst_stack(net, *sc.dst, tcpc);
  tcp::TcpStack depot_stack(net, *sc.depots.front(), tcpc);

  core::SessionDirectory dir;
  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = false;
  core::SinkServer sink(dst_stack, kSinkPort, sink_cfg, &dir);
  bool done = false;
  sink.on_complete = [&](core::SinkApp&) { done = true; };

  core::DepotConfig dcfg = sc.depot;
  dcfg.port = kDepotPort;
  core::DepotApp depot(depot_stack, dcfg, &dir);

  core::SourceConfig scfg;
  scfg.payload_bytes = kBytes;
  scfg.use_header = true;
  util::Rng id_rng(3);
  scfg.header.session = core::SessionId::generate(id_rng);
  scfg.header.payload_length = kBytes;
  scfg.header.hops.push_back({sc.depots.front()->id(), kDepotPort});
  scfg.header.destination = {sc.dst->id(), kSinkPort};
  core::SourceApp source(src_stack,
                         {sc.depots.front()->id(), kDepotPort}, scfg, &dir);
  source.start();

  auto& ev = net.sim().events();
  const auto acked = [&] { return source.socket()->stats().bytes_acked; };
  // Warm-up: the first quarter grows every ring and event slot table to
  // its working size.
  while (!done && acked() < kBytes / 4 && ev.step()) {
  }
  ASSERT_FALSE(done);
  const std::uint64_t packets_before = net.total_link_stats().packets_sent;
  const std::uint64_t news_before = g_news.load();
  while (!done && acked() < 3 * kBytes / 4 && ev.step()) {
  }
  const std::uint64_t news = g_news.load() - news_before;
  const std::uint64_t packets =
      net.total_link_stats().packets_sent - packets_before;
  ASSERT_FALSE(done);
  // The window covers half the payload: thousands of data segments and
  // their ACKs on four links.
  EXPECT_GT(packets, 10000u);
  EXPECT_EQ(net.total_link_stats().drops_wire, 0u);
  EXPECT_EQ(news, 0u) << news << " heap allocations over " << packets
                      << " packet hops";

  while (!done && ev.step()) {
  }
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace lsl
