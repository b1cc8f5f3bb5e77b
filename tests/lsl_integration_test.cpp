// Integration tests of the simulated LSL session layer: header flow through
// depots, relay correctness with real bytes + MD5, virtual/real timing
// consistency, backpressure from bounded depot buffers, and failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "lsl/apps.hpp"
#include "lsl/depot.hpp"
#include "lsl/directory.hpp"
#include "lsl/session_id.hpp"
#include "sim/network.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

constexpr sim::PortNum kSink = 5001;
constexpr sim::PortNum kDepot = 4000;

/// src --- r1 --- r2 --- dst, with a depot host on r1<->r2's midpoint r_mid.
struct Topology {
  std::unique_ptr<sim::Network> net;
  sim::Node* src = nullptr;
  sim::Node* dst = nullptr;
  sim::Node* depot = nullptr;
  std::unique_ptr<tcp::TcpStack> src_stack, dst_stack, depot_stack;
};

Topology make_topology(const tcp::TcpConfig& tcp, std::uint64_t seed = 1,
                       double loss = 0.0) {
  Topology t;
  t.net = std::make_unique<sim::Network>(seed);
  t.src = &t.net->add_host("src");
  t.dst = &t.net->add_host("dst");
  t.depot = &t.net->add_host("depot");
  sim::Node& r = t.net->add_router("r");

  sim::LinkConfig wan;
  wan.rate = util::DataRate::mbps(50);
  wan.delay = util::millis(10);
  wan.loss_rate = loss;
  t.net->connect(*t.src, r, wan);
  t.net->connect(r, *t.dst, wan);

  sim::LinkConfig dlink;
  dlink.rate = util::DataRate::mbps(100);
  dlink.delay = util::millis(0.5);
  t.net->connect(r, *t.depot, dlink);
  t.net->compute_routes();

  t.src_stack = std::make_unique<tcp::TcpStack>(*t.net, *t.src, tcp);
  t.dst_stack = std::make_unique<tcp::TcpStack>(*t.net, *t.dst, tcp);
  t.depot_stack = std::make_unique<tcp::TcpStack>(*t.net, *t.depot, tcp);
  return t;
}

struct SessionOutcome {
  bool complete = false;
  bool verified = false;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  core::DepotStats depot;
};

/// Run one LSL session through the topology's depot.
SessionOutcome run_session(Topology& t, std::uint64_t bytes, bool real,
                           core::DepotConfig dcfg = {},
                           std::uint64_t payload_seed = 50) {
  SessionOutcome out;
  core::SessionDirectory dir;
  core::SessionDirectory* dirp = real ? nullptr : &dir;

  dcfg.port = kDepot;
  core::DepotApp depot(*t.depot_stack, dcfg, dirp);

  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = real;
  sink_cfg.payload_seed = payload_seed;
  core::SinkServer sink(*t.dst_stack, kSink, sink_cfg, dirp);
  util::SimTime done_time = 0;
  sink.on_complete = [&](core::SinkApp& app) {
    out.complete = true;
    out.verified = !real || app.verified();
    out.bytes = app.payload_received();
    done_time = app.complete_time();
  };

  core::SourceConfig scfg;
  scfg.payload_bytes = bytes;
  scfg.payload_seed = payload_seed;
  scfg.use_header = true;
  util::Rng rng(7);
  scfg.header.session = core::SessionId::generate(rng);
  if (real) scfg.header.flags |= core::kFlagDigestTrailer;
  scfg.header.payload_length = bytes;
  scfg.header.hops = {{t.depot->id(), kDepot}};
  scfg.header.destination = {t.dst->id(), kSink};
  core::SourceApp src(*t.src_stack, {t.depot->id(), kDepot}, scfg, dirp);
  src.start();

  auto& ev = t.net->sim().events();
  const util::SimTime cap = 3600ll * util::kSecond;
  while (!out.complete && ev.now() <= cap && ev.step()) {
  }
  if (out.complete) {
    out.seconds = util::to_seconds(done_time - src.start_time());
  }
  ev.run_until(ev.now() + 300 * util::kSecond);  // drain teardown
  out.depot = depot.stats();
  return out;
}

TEST(LslIntegration, RealBytesRelayedAndDigestVerified) {
  tcp::TcpConfig tcp;
  tcp.carry_data = true;
  auto t = make_topology(tcp);
  const auto out = run_session(t, 2 * util::kMiB, /*real=*/true);
  ASSERT_TRUE(out.complete);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.bytes, 2 * util::kMiB);
  EXPECT_EQ(out.depot.sessions_completed, 1u);
  EXPECT_GE(out.depot.bytes_relayed, 2 * util::kMiB);
}

TEST(LslIntegration, RealBytesSurviveLossyPath) {
  tcp::TcpConfig tcp;
  tcp.carry_data = true;
  auto t = make_topology(tcp, 3, /*loss=*/2e-3);
  const auto out = run_session(t, 1 * util::kMiB, true);
  ASSERT_TRUE(out.complete);
  EXPECT_TRUE(out.verified);  // retransmission preserved every byte
}

TEST(LslIntegration, VirtualModeMatchesRealModeTiming) {
  // The virtual-payload optimization must not change transfer dynamics:
  // identical seeds give near-identical completion times.
  tcp::TcpConfig real_tcp;
  real_tcp.carry_data = true;
  auto t_real = make_topology(real_tcp, 11);
  const auto real = run_session(t_real, 4 * util::kMiB, true);

  tcp::TcpConfig virt_tcp;
  virt_tcp.carry_data = false;
  auto t_virt = make_topology(virt_tcp, 11);
  const auto virt = run_session(t_virt, 4 * util::kMiB, false);

  ASSERT_TRUE(real.complete);
  ASSERT_TRUE(virt.complete);
  EXPECT_EQ(virt.bytes, real.bytes);
  // The digest trailer adds 16 bytes to the real-mode stream; allow 2%.
  EXPECT_NEAR(virt.seconds, real.seconds, real.seconds * 0.02);
}

TEST(LslIntegration, TinyDepotBufferBackpressureStillDelivers) {
  tcp::TcpConfig tcp;
  tcp.carry_data = true;
  auto t = make_topology(tcp);
  core::DepotConfig dcfg;
  dcfg.buffer_bytes = 8 * util::kKiB;  // brutal backpressure
  const auto out = run_session(t, 1 * util::kMiB, true, dcfg);
  ASSERT_TRUE(out.complete);
  EXPECT_TRUE(out.verified);
  EXPECT_LE(out.depot.max_buffered, 8 * util::kKiB);
}

TEST(LslIntegration, SlowDepotCopyBoundsThroughput) {
  tcp::TcpConfig tcp;
  auto t = make_topology(tcp);
  core::DepotConfig dcfg;
  dcfg.copy_rate = util::DataRate::mbps(5);
  const auto out = run_session(t, 4 * util::kMiB, false, dcfg);
  ASSERT_TRUE(out.complete);
  const double mbps = static_cast<double>(out.bytes) * 8 / 1e6 / out.seconds;
  EXPECT_LT(mbps, 5.5);
  EXPECT_GT(mbps, 3.0);
}

TEST(LslIntegration, DepotSetupLatencyDelaysSmallTransfers) {
  tcp::TcpConfig tcp;
  auto t1 = make_topology(tcp, 21);
  core::DepotConfig fast;
  fast.session_setup_latency = 0;
  const auto quick = run_session(t1, 8 * util::kKiB, false, fast);

  auto t2 = make_topology(tcp, 21);
  core::DepotConfig slow;
  slow.session_setup_latency = util::millis(200);
  const auto delayed = run_session(t2, 8 * util::kKiB, false, slow);

  ASSERT_TRUE(quick.complete);
  ASSERT_TRUE(delayed.complete);
  EXPECT_NEAR(delayed.seconds - quick.seconds, 0.2, 0.03);
}

TEST(LslIntegration, DeadNextHopFailsSession) {
  tcp::TcpConfig tcp;
  auto t = make_topology(tcp);
  core::SessionDirectory dir;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  core::DepotApp depot(*t.depot_stack, dcfg, &dir);

  // No sink listening: the depot's onward connect must be refused and the
  // session aborted.
  core::SourceConfig scfg;
  scfg.payload_bytes = 64 * util::kKiB;
  scfg.use_header = true;
  util::Rng rng(7);
  scfg.header.session = core::SessionId::generate(rng);
  scfg.header.payload_length = scfg.payload_bytes;
  scfg.header.hops = {{t.depot->id(), kDepot}};
  scfg.header.destination = {t.dst->id(), kSink};
  core::SourceApp src(*t.src_stack, {t.depot->id(), kDepot}, scfg, &dir);
  src.start();

  t.net->sim().events().run_until(120 * util::kSecond);
  EXPECT_EQ(depot.stats().sessions_failed, 1u);
  EXPECT_EQ(depot.stats().sessions_completed, 0u);
}

TEST(LslIntegration, TwoDepotCascadeOnOneHost) {
  // Cascade through the same depot host twice via two DepotApps on
  // different ports — exercises multi-hop header popping in simulation.
  tcp::TcpConfig tcp;
  tcp.carry_data = true;
  auto t = make_topology(tcp);
  core::DepotConfig d1_cfg;
  d1_cfg.port = kDepot;
  core::DepotApp d1(*t.depot_stack, d1_cfg, nullptr);
  core::DepotConfig d2_cfg;
  d2_cfg.port = kDepot + 1;
  core::DepotApp d2(*t.depot_stack, d2_cfg, nullptr);

  bool complete = false;
  bool verified = false;
  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = true;
  sink_cfg.payload_seed = 3;
  core::SinkServer sink(*t.dst_stack, kSink, sink_cfg, nullptr);
  sink.on_complete = [&](core::SinkApp& app) {
    complete = true;
    verified = app.verified();
  };

  core::SourceConfig scfg;
  scfg.payload_bytes = 512 * util::kKiB;
  scfg.payload_seed = 3;
  scfg.use_header = true;
  util::Rng rng(7);
  scfg.header.session = core::SessionId::generate(rng);
  scfg.header.flags |= core::kFlagDigestTrailer;
  scfg.header.payload_length = scfg.payload_bytes;
  scfg.header.hops = {{t.depot->id(), kDepot}, {t.depot->id(), kDepot + 1}};
  scfg.header.destination = {t.dst->id(), kSink};
  core::SourceApp src(*t.src_stack, {t.depot->id(), kDepot}, scfg, nullptr);
  src.start();

  auto& ev = t.net->sim().events();
  while (!complete && ev.now() <= 3600ll * util::kSecond && ev.step()) {
  }
  ASSERT_TRUE(complete);
  EXPECT_TRUE(verified);
  EXPECT_EQ(d1.stats().sessions_completed, 1u);
  EXPECT_EQ(d2.stats().sessions_completed, 1u);
}

TEST(LslIntegration, ZeroByteSessionCompletes) {
  tcp::TcpConfig tcp;
  tcp.carry_data = true;
  auto t = make_topology(tcp);
  const auto out = run_session(t, 0, true);
  ASSERT_TRUE(out.complete);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.bytes, 0u);
}


/// Drive a real-data depot with hand-written upstream bytes (no SourceApp):
/// the harness for header-ingest edge cases. `wire` builds the bytes from
/// a valid header routed straight to the sink; `fin` closes after them.
struct RawOutcome {
  core::DepotStats depot;
  int dials = 0;
  bool sink_complete = false;
};

RawOutcome run_raw(
    const std::function<std::vector<std::uint8_t>(core::SessionHeader)>& wire,
    bool fin) {
  tcp::TcpConfig tcp;
  tcp.carry_data = true;
  auto t = make_topology(tcp);
  RawOutcome out;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  core::DepotApp depot(*t.depot_stack, dcfg, nullptr);
  depot.on_downstream_open = [&](tcp::TcpSocket*) { ++out.dials; };
  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  core::SinkServer sink(*t.dst_stack, kSink, sink_cfg, nullptr);
  sink.on_complete = [&](core::SinkApp&) { out.sink_complete = true; };

  core::SessionHeader h;
  util::Rng rng(21);
  h.session = core::SessionId::generate(rng);
  h.destination = {t.dst->id(), kSink};
  const std::vector<std::uint8_t> bytes = wire(h);
  tcp::TcpSocket* up = t.src_stack->connect({t.depot->id(), kDepot});
  up->on_established = [&] {
    ASSERT_EQ(up->send(bytes), bytes.size());
    if (fin) up->close();
  };
  t.net->sim().events().run_until(30 * util::kSecond);
  out.depot = depot.stats();
  return out;
}

TEST(LslIntegration, UndecodableHeaderFailsWithoutDialing) {
  // A v2 header whose trace id is zero has a valid length but does not
  // decode; the depot must fail the session, not dereference a header it
  // never parsed.
  const auto out = run_raw(
      [](core::SessionHeader h) {
        h.trace_id = 1;  // encodes as version 2 ...
        std::vector<std::uint8_t> wire;
        core::encode_header(h, wire);
        std::fill_n(wire.begin() + 40, core::kTraceIdBytes, 0);  // ... id 0
        wire.insert(wire.end(), 10, 0xab);  // payload behind the header
        return wire;
      },
      /*fin=*/false);
  EXPECT_EQ(out.depot.sessions_failed, 1u);
  EXPECT_EQ(out.depot.sessions_completed, 0u);
  EXPECT_EQ(out.dials, 0);
}

// The sink's half of the same rule: a header that passes the length check
// but fails to decode is refused (the stream is aborted), never read as a
// headerless raw stream and verified on content alone — with or without
// a migration ledger attached.
TEST(LslIntegration, SinkRefusesUndecodableHeader) {
  for (const bool with_ledger : {false, true}) {
    tcp::TcpConfig tcp;
    tcp.carry_data = true;
    auto t = make_topology(tcp);
    constexpr std::uint64_t kSeed = 23;
    core::SessionLedger ledger(kSeed);
    core::SinkConfig sink_cfg;
    sink_cfg.expect_header = true;
    sink_cfg.verify_payload = true;
    sink_cfg.payload_seed = kSeed;
    if (with_ledger) sink_cfg.ledger = &ledger;
    core::SinkServer sink(*t.dst_stack, kSink, sink_cfg, nullptr);
    bool complete = false;
    bool verified = false;
    sink.on_complete = [&](core::SinkApp& app) {
      complete = true;
      verified = app.verified();
    };

    core::SessionHeader h;
    util::Rng rng(23);
    h.session = core::SessionId::generate(rng);
    h.trace_id = 1;  // encodes as version 2 ...
    h.payload_length = 4096;
    h.destination = {t.dst->id(), kSink};
    std::vector<std::uint8_t> wire;
    core::encode_header(h, wire);
    std::fill_n(wire.begin() + 40, core::kTraceIdBytes, 0);  // ... id 0
    std::vector<std::uint8_t> payload(h.payload_length);
    core::PayloadGenerator(kSeed).generate(payload);
    wire.insert(wire.end(), payload.begin(), payload.end());

    tcp::TcpSocket* up = t.src_stack->connect({t.dst->id(), kSink});
    up->on_established = [&] {
      ASSERT_EQ(up->send(wire), wire.size());
      up->close();
    };
    t.net->sim().events().run_until(30 * util::kSecond);
    EXPECT_FALSE(complete) << "ledger=" << with_ledger;
    EXPECT_FALSE(verified) << "ledger=" << with_ledger;
    EXPECT_FALSE(ledger.find(h.session)) << "ledger=" << with_ledger;
  }
}

std::vector<std::uint8_t> bare_header(core::SessionHeader h) {
  h.payload_length = 0;
  std::vector<std::uint8_t> wire;
  core::encode_header(h, wire);
  return wire;
}

TEST(LslIntegration, HeaderAsLastReadableBytesIsDialed) {
  // The header alone, nothing behind it: the depot must still parse it
  // and dial onward without waiting for more bytes.
  const auto out = run_raw(bare_header, /*fin=*/false);
  EXPECT_EQ(out.dials, 1);
  EXPECT_EQ(out.depot.sessions_failed, 0u);
}

TEST(LslIntegration, HeaderThenFinCompletesEmptySession) {
  const auto out = run_raw(bare_header, /*fin=*/true);
  EXPECT_EQ(out.dials, 1);
  EXPECT_EQ(out.depot.sessions_completed, 1u);
  EXPECT_EQ(out.depot.sessions_failed, 0u);
  EXPECT_TRUE(out.sink_complete);
}

TEST(LslIntegration, SharedCopyResourceLimitsConcurrentSessions) {
  // Two concurrent sessions through one depot whose copy resource sustains
  // 10 Mbit/s: the aggregate must respect that bound (one daemon, one CPU).
  tcp::TcpConfig tcp;
  auto t = make_topology(tcp, 31);
  core::SessionDirectory dir;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  dcfg.copy_rate = util::DataRate::mbps(10);
  core::DepotApp depot(*t.depot_stack, dcfg, &dir);

  std::size_t completed = 0;
  util::SimTime last_done = 0;
  std::vector<std::unique_ptr<core::SinkServer>> sinks;
  std::vector<std::unique_ptr<core::SourceApp>> sources;
  util::SimTime start = 0;
  constexpr std::uint64_t kBytes = 4 * util::kMiB;
  for (int i = 0; i < 2; ++i) {
    const sim::PortNum port = static_cast<sim::PortNum>(kSink + i);
    core::SinkConfig scfg;
    scfg.expect_header = true;
    sinks.push_back(
        std::make_unique<core::SinkServer>(*t.dst_stack, port, scfg, &dir));
    sinks.back()->on_complete = [&](core::SinkApp& app) {
      ++completed;
      last_done = std::max(last_done, app.complete_time());
    };
    core::SourceConfig cfg;
    cfg.payload_bytes = kBytes;
    cfg.use_header = true;
    util::Rng rng(40 + i);
    cfg.header.session = core::SessionId::generate(rng);
    cfg.header.payload_length = kBytes;
    cfg.header.hops = {{t.depot->id(), kDepot}};
    cfg.header.destination = {t.dst->id(), port};
    sources.push_back(std::make_unique<core::SourceApp>(
        *t.src_stack, sim::Endpoint{t.depot->id(), kDepot}, cfg, &dir));
    sources.back()->start();
    start = sources.back()->start_time();
  }
  auto& ev = t.net->sim().events();
  while (completed < 2 && ev.now() <= 3600ll * util::kSecond && ev.step()) {
  }
  ASSERT_EQ(completed, 2u);
  const double aggregate =
      util::throughput_mbps(2 * kBytes, last_done - start);
  EXPECT_LT(aggregate, 10.5);
  EXPECT_GT(aggregate, 7.0);
}

TEST(LslIntegration, AdmissionControlRefusesExcessSessions) {
  tcp::TcpConfig tcp;
  auto t = make_topology(tcp, 33);
  core::SessionDirectory dir;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  dcfg.max_sessions = 1;
  core::DepotApp depot(*t.depot_stack, dcfg, &dir);

  std::size_t completed = 0;
  std::size_t failed = 0;
  std::vector<std::unique_ptr<core::SinkServer>> sinks;
  std::vector<std::unique_ptr<core::SourceApp>> sources;
  constexpr std::uint64_t kBytes = 2 * util::kMiB;
  for (int i = 0; i < 3; ++i) {
    const sim::PortNum port = static_cast<sim::PortNum>(kSink + i);
    core::SinkConfig scfg;
    scfg.expect_header = true;
    sinks.push_back(
        std::make_unique<core::SinkServer>(*t.dst_stack, port, scfg, &dir));
    sinks.back()->on_complete = [&](core::SinkApp&) { ++completed; };
    core::SourceConfig cfg;
    cfg.payload_bytes = kBytes;
    cfg.use_header = true;
    util::Rng rng(50 + i);
    cfg.header.session = core::SessionId::generate(rng);
    cfg.header.payload_length = kBytes;
    cfg.header.hops = {{t.depot->id(), kDepot}};
    cfg.header.destination = {t.dst->id(), port};
    sources.push_back(std::make_unique<core::SourceApp>(
        *t.src_stack, sim::Endpoint{t.depot->id(), kDepot}, cfg, &dir));
    sources.back()->on_finished = [&] { ++failed; };  // fires on error too
    sources.back()->start();
  }
  t.net->sim().events().run_until(600 * util::kSecond);
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(depot.stats().sessions_refused, 2u);
  EXPECT_EQ(depot.stats().sessions_accepted, 1u);
}

TEST(LslIntegration, MemoryBudgetBoundsBufferingAndRefusesUnderPressure) {
  // A slow copy resource piles bytes up inside the depot; the memory
  // budget must (a) stop upstream reads at the budget, (b) refuse a
  // session that arrives while usage sits over the high watermark, and
  // (c) drain back to normal admission afterwards — the same model the
  // real daemon's chunk pool enforces.
  tcp::TcpConfig tcp;
  auto t = make_topology(tcp, 35);
  core::SessionDirectory dir;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  dcfg.copy_rate = util::DataRate::mbps(1);  // the deliberate bottleneck
  dcfg.pool_budget_bytes = 256 * util::kKiB;
  dcfg.pool_low_watermark = 0.25;
  dcfg.pool_high_watermark = 0.5;
  core::DepotApp depot(*t.depot_stack, dcfg, &dir);

  std::size_t completed = 0;
  std::vector<std::unique_ptr<core::SinkServer>> sinks;
  std::vector<std::unique_ptr<core::SourceApp>> sources;
  constexpr std::uint64_t kBytes = 4 * util::kMiB;
  auto launch = [&](int i) {
    const sim::PortNum port = static_cast<sim::PortNum>(kSink + i);
    core::SinkConfig scfg;
    scfg.expect_header = true;
    sinks.push_back(
        std::make_unique<core::SinkServer>(*t.dst_stack, port, scfg, &dir));
    sinks.back()->on_complete = [&](core::SinkApp&) { ++completed; };
    core::SourceConfig cfg;
    cfg.payload_bytes = kBytes;
    cfg.use_header = true;
    util::Rng rng(60 + i);
    cfg.header.session = core::SessionId::generate(rng);
    cfg.header.payload_length = kBytes;
    cfg.header.hops = {{t.depot->id(), kDepot}};
    cfg.header.destination = {t.dst->id(), port};
    sources.push_back(std::make_unique<core::SourceApp>(
        *t.src_stack, sim::Endpoint{t.depot->id(), kDepot}, cfg, &dir));
    sources.back()->start();
  };

  launch(0);
  // By t=2s the first session has pulled up to the full budget (the 1 Mbit/s
  // copier drains far slower than the 50 Mbit/s ingest) and pressure holds;
  // this arrival must bounce.
  t.net->sim().events().schedule_at(2 * util::kSecond, [&] { launch(1); });
  t.net->sim().events().run_until(600 * util::kSecond);

  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(depot.stats().sessions_accepted, 1u);
  EXPECT_EQ(depot.stats().sessions_refused_memory, 1u);
  EXPECT_EQ(depot.stats().sessions_refused, 0u);  // disjoint counters
  // The budget is a hard bound (no salvage ran here), and everything was
  // handed back by the end.
  EXPECT_LE(depot.memory().peak(), dcfg.pool_budget_bytes);
  EXPECT_GE(depot.memory().peak(), dcfg.pool_budget_bytes / 2);  // it bit
  EXPECT_EQ(depot.memory().in_use(), 0u);
  EXPECT_GE(depot.memory().pressure_episodes(), 1u);
  // Reads stopped at the budget: the ring never reached its 4 MiB cap.
  EXPECT_LE(depot.stats().max_buffered, dcfg.pool_budget_bytes);
  EXPECT_GT(depot.stats().backpressure_stalls, 0u);
}

/// Property sweep: relay correctness across sizes and loss rates.
struct RelayCase {
  std::uint64_t bytes;
  double loss;
  std::uint64_t seed;
};

class LslRelayProperty : public ::testing::TestWithParam<RelayCase> {};

TEST_P(LslRelayProperty, DeliversVerifiedStream) {
  const RelayCase c = GetParam();
  tcp::TcpConfig tcp;
  tcp.carry_data = true;
  auto t = make_topology(tcp, c.seed, c.loss);
  const auto out = run_session(t, c.bytes, true, {}, c.seed);
  ASSERT_TRUE(out.complete)
      << "bytes=" << c.bytes << " loss=" << c.loss << " seed=" << c.seed;
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.bytes, c.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LslRelayProperty,
    ::testing::Values(RelayCase{1, 0.0, 1},
                      RelayCase{1447, 0.0, 2},       // < 1 MSS
                      RelayCase{1448, 0.0, 3},       // exactly 1 MSS
                      RelayCase{1449, 0.0, 4},       // just over
                      RelayCase{64 * 1024, 1e-3, 5},
                      RelayCase{256 * 1024, 5e-3, 6},
                      RelayCase{1024 * 1024, 1e-2, 7},
                      RelayCase{37, 2e-2, 8},
                      RelayCase{512 * 1024, 1e-3, 9},
                      RelayCase{2 * 1024 * 1024, 1e-4, 10}));

}  // namespace
}  // namespace lsl::test
