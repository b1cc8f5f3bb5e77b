// Unit tests for the liveness subsystem (src/live): deadline ordering on
// util::EventQueue and timeout arithmetic, the RelayLiveness per-relay state machine driven
// with hand-picked clock values, and the simulated DepotApp's use of both —
// including the acceptance property that default-off liveness leaves
// same-seed metric exports byte-identical.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "live/live_metrics.hpp"
#include "live/liveness.hpp"
#include "lsl/apps.hpp"
#include "lsl/depot.hpp"
#include "lsl/session_id.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "sim/network.hpp"
#include "tcp/stack.hpp"
#include "util/event_queue.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

using live::DeadlineKind;
using live::LivenessConfig;
using live::RelayLiveness;
using util::EventQueue;

// ---------------------------------------------------------------------------
// util::EventQueue as the relay's deadline queue: run_until(now) is what
// fires due deadlines, and the ordering, cancel and re-entry guarantees
// below are the ones RelayLiveness and RelayCore rely on.

TEST(DeadlineQueue, FiresInDueThenInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(300, [&] { order.push_back(0); });
  q.schedule_at(100, [&] { order.push_back(1); });
  q.schedule_at(100, [&] { order.push_back(2); });  // tie: insertion order
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_due(), 100);

  q.run_until(99);
  EXPECT_TRUE(order.empty());
  q.run_until(300);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_TRUE(q.empty());
}

TEST(DeadlineQueue, CancelIsBenignOnDeadIds) {
  EventQueue q;
  int fired = 0;
  const util::EventId t = q.schedule_at(100, [&] { ++fired; });
  q.cancel(t);
  EXPECT_TRUE(q.empty());
  q.cancel(t);  // already cancelled
  q.cancel(util::kInvalidEvent);
  q.run_until(1000);
  EXPECT_EQ(fired, 0);

  const util::EventId f = q.schedule_at(1000, [&] { ++fired; });
  const util::EventId later = q.schedule_at(2000, [&] { ++fired; });
  q.run_until(1000);
  EXPECT_EQ(fired, 1);
  q.cancel(f);  // already fired: leaves the pending one alone
  EXPECT_EQ(q.size(), 1u);
  q.cancel(later);
  EXPECT_TRUE(q.empty());
}

TEST(DeadlineQueue, CallbackMayReenterSchedule) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(100, [&] {
    order.push_back(0);
    q.schedule_at(100, [&] { order.push_back(1); });  // due now: same pass
    q.schedule_at(500, [&] { order.push_back(2); });  // future: left armed
  });
  q.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_due(), 500);
}

// ---------------------------------------------------------------------------
// RelayLiveness, driven with explicit clock values (plain int64 ns).

struct LivenessFixture {
  EventQueue timers;
  LivenessConfig config;
  RelayLiveness relay;
  std::vector<DeadlineKind> expired;

  void attach() {
    relay.attach(&timers, &config,
                 [this](DeadlineKind k) { expired.push_back(k); });
  }
};

TEST(RelayLiveness, HeaderDeadlineExpiresWhenHeaderNeverLands) {
  LivenessFixture f;
  f.config.header_timeout = 100;
  f.attach();
  f.relay.on_accepted(0);
  EXPECT_EQ(f.timers.size(), 1u);
  f.timers.run_until(99);
  EXPECT_TRUE(f.expired.empty());
  f.timers.run_until(100);
  ASSERT_EQ(f.expired.size(), 1u);
  EXPECT_EQ(f.expired[0], DeadlineKind::kHeader);
}

TEST(RelayLiveness, LifecycleEdgesRetireEachDeadline) {
  LivenessFixture f;
  f.config.header_timeout = 100;
  f.config.dial_timeout = 100;
  f.config.idle_timeout = 100;
  f.attach();

  f.relay.on_accepted(0);
  f.relay.on_header_done(50);  // header retired, dial armed for t=150
  f.timers.run_until(149);
  EXPECT_TRUE(f.expired.empty());
  f.relay.on_connected(120);  // dial retired, idle armed for t=220
  f.timers.run_until(219);
  EXPECT_TRUE(f.expired.empty());
  EXPECT_EQ(f.timers.size(), 1u);  // exactly one watchdog at a time
  f.timers.run_until(220);
  ASSERT_EQ(f.expired.size(), 1u);
  EXPECT_EQ(f.expired[0], DeadlineKind::kIdle);
}

TEST(RelayLiveness, DialDeadlineExpiresOnUnansweredConnect) {
  LivenessFixture f;
  f.config.dial_timeout = 100;
  f.attach();
  f.relay.on_accepted(0);  // header class disabled: nothing armed yet
  EXPECT_TRUE(f.timers.empty());
  f.relay.on_header_done(10);
  f.timers.run_until(110);
  ASSERT_EQ(f.expired.size(), 1u);
  EXPECT_EQ(f.expired[0], DeadlineKind::kDial);
}

TEST(RelayLiveness, IdleDeadlineReArmsLazilyOnActivity) {
  LivenessFixture f;
  f.config.idle_timeout = 100;
  f.attach();
  f.relay.on_connected(0);  // idle armed for t=100

  f.relay.note_activity(60);  // only stamps the horizon, no timer churn
  EXPECT_EQ(f.timers.size(), 1u);
  f.timers.run_until(100);  // fires early, re-arms for 60+100=160
  EXPECT_TRUE(f.expired.empty());
  EXPECT_EQ(f.timers.size(), 1u);

  f.timers.run_until(159);
  EXPECT_TRUE(f.expired.empty());
  f.timers.run_until(160);
  ASSERT_EQ(f.expired.size(), 1u);
  EXPECT_EQ(f.expired[0], DeadlineKind::kIdle);
}

TEST(RelayLiveness, StallWatchdogSparesSlowButMovingRelays) {
  LivenessFixture f;
  f.config.stall_window = 100;
  f.config.min_bytes_per_window = 10;
  f.attach();
  std::vector<double> rates;
  f.relay.set_rate_hook([&](double bps) { rates.push_back(bps); });

  f.relay.set_should_progress(true, 0);
  f.relay.on_connected(0);  // stall window [0,100)

  f.relay.note_progress(50);  // slow but above the floor
  f.timers.run_until(100);  // window closes with movement → next window
  EXPECT_TRUE(f.expired.empty());
  ASSERT_EQ(rates.size(), 1u);
  // 50 bytes over a 100 ns window.
  EXPECT_DOUBLE_EQ(rates[0], 50.0 * 1e9 / 100.0);

  f.relay.note_progress(5);  // below min_bytes_per_window: stalled
  f.timers.run_until(200);
  ASSERT_EQ(f.expired.size(), 1u);
  EXPECT_EQ(f.expired[0], DeadlineKind::kStall);
}

TEST(RelayLiveness, ShouldProgressSwitchesBetweenWatchdogs) {
  LivenessFixture f;
  f.config.idle_timeout = 100;
  f.config.stall_window = 100;
  f.config.min_bytes_per_window = 10;
  f.attach();
  f.relay.on_connected(0);  // idle armed for t=100

  f.relay.set_should_progress(true, 50);  // bytes buffered: stall takes over
  EXPECT_EQ(f.timers.size(), 1u);
  f.relay.note_progress(20);
  f.timers.run_until(150);  // moving: window renewed
  EXPECT_TRUE(f.expired.empty());

  f.relay.set_should_progress(false, 200);  // drained: idle takes over
  EXPECT_EQ(f.timers.size(), 1u);
  f.timers.run_until(300);  // no activity since connect → idle expiry
  ASSERT_EQ(f.expired.size(), 1u);
  EXPECT_EQ(f.expired[0], DeadlineKind::kIdle);
}

TEST(RelayLiveness, AllZeroConfigIsInert) {
  LivenessFixture f;  // every duration 0 = disabled
  f.attach();
  f.relay.on_accepted(0);
  f.relay.on_header_done(10);
  f.relay.on_connected(20);
  f.relay.note_activity(30);
  f.relay.note_progress(1000);
  f.relay.set_should_progress(true, 40);
  f.relay.set_should_progress(false, 50);
  EXPECT_TRUE(f.timers.empty());
  f.timers.run_until(1'000'000'000);
  EXPECT_TRUE(f.expired.empty());
  f.relay.cancel_all();  // benign with nothing armed
}

TEST(RelayLiveness, CancelAllDisarmsEverything) {
  LivenessFixture f;
  f.config.header_timeout = 100;
  f.attach();
  f.relay.on_accepted(0);
  EXPECT_EQ(f.timers.size(), 1u);
  f.relay.cancel_all();
  EXPECT_TRUE(f.timers.empty());
  f.timers.run_until(1000);
  EXPECT_TRUE(f.expired.empty());
}

// ---------------------------------------------------------------------------
// DrainReport

TEST(DrainReport, SummaryReportsEveryBucket) {
  live::DrainReport rep;
  rep.in_flight_at_start = 3;
  rep.completed = 1;
  rep.parked = 1;
  rep.aborted = 1;
  rep.refused = 2;
  rep.expired = true;
  EXPECT_EQ(rep.summary(),
            "drain expired: 3 in flight, 1 completed, 1 parked, 1 aborted, "
            "2 refused");
}

// ---------------------------------------------------------------------------
// Simulated DepotApp: the same policy objects wired into the sim event
// queue. Mirrors the topology of lsl_integration_test.

constexpr sim::PortNum kSink = 5001;
constexpr sim::PortNum kDepot = 4000;

struct SimHarness {
  std::unique_ptr<sim::Network> net;
  sim::Node* src = nullptr;
  sim::Node* dst = nullptr;
  sim::Node* depot_node = nullptr;
  std::unique_ptr<tcp::TcpStack> src_stack, dst_stack, depot_stack;

  explicit SimHarness(std::uint64_t seed = 1) {
    tcp::TcpConfig tcp;
    tcp.carry_data = true;
    net = std::make_unique<sim::Network>(seed);
    src = &net->add_host("src");
    dst = &net->add_host("dst");
    depot_node = &net->add_host("depot");
    sim::Node& r = net->add_router("r");
    sim::LinkConfig link;
    link.rate = util::DataRate::mbps(50);
    link.delay = util::millis(1);
    net->connect(*src, r, link);
    net->connect(r, *dst, link);
    net->connect(r, *depot_node, link);
    net->compute_routes();
    src_stack = std::make_unique<tcp::TcpStack>(*net, *src, tcp);
    dst_stack = std::make_unique<tcp::TcpStack>(*net, *dst, tcp);
    depot_stack = std::make_unique<tcp::TcpStack>(*net, *depot_node, tcp);
  }

  core::SourceConfig source_config(std::uint64_t bytes,
                                   std::uint64_t payload_seed,
                                   std::uint64_t id_seed) const {
    core::SourceConfig scfg;
    scfg.payload_bytes = bytes;
    scfg.payload_seed = payload_seed;
    scfg.use_header = true;
    util::Rng rng(id_seed);
    scfg.header.session = core::SessionId::generate(rng);
    scfg.header.flags |= core::kFlagDigestTrailer;
    scfg.header.payload_length = bytes;
    scfg.header.hops = {{depot_node->id(), kDepot}};
    scfg.header.destination = {dst->id(), kSink};
    return scfg;
  }

  /// Step the simulator until `done()` or `cap` sim-time. Returns done().
  template <typename Pred>
  bool run_until(Pred done, util::SimDuration cap = 3600ll * util::kSecond) {
    auto& ev = net->sim().events();
    while (!done() && ev.now() <= cap && ev.step()) {
    }
    return done();
  }
};

// The depot's stall watchdog fires in the simulator exactly as in the
// daemon: a mid-stream stall with tight windows fails the session with a
// stall timeout, deterministically.
TEST(SimLiveness, StallWatchdogFailsStalledDepot) {
  SimHarness h;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  dcfg.liveness.stall_window = 50 * util::kMillisecond;
  dcfg.liveness.min_bytes_per_window = 1024;
  core::DepotApp depot(*h.depot_stack, dcfg, nullptr);

  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = true;
  sink_cfg.payload_seed = 50;
  core::SinkServer sink(*h.dst_stack, kSink, sink_cfg, nullptr);

  core::SourceApp src(*h.src_stack, {h.depot_node->id(), kDepot},
                      h.source_config(8 * util::kMiB, 50, 7), nullptr);
  src.start();

  ASSERT_TRUE(h.run_until(
      [&] { return depot.stats().bytes_relayed > 64 * util::kKiB; }));
  depot.set_stalled(true);  // buffered bytes stop moving

  ASSERT_TRUE(h.run_until([&] { return depot.stats().sessions_failed > 0; }));
  EXPECT_EQ(depot.stats().timeouts_stall, 1u);
  EXPECT_EQ(depot.stats().timeouts_idle, 0u);
  EXPECT_EQ(depot.stats().sessions_completed, 0u);
}

// With nothing stalled, tight liveness deadlines must NOT fire on a
// healthy transfer — slow-but-moving survives in the sim too.
TEST(SimLiveness, HealthyTransferSurvivesTightDeadlines) {
  SimHarness h;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  dcfg.liveness.header_timeout = 2 * util::kSecond;
  dcfg.liveness.dial_timeout = 2 * util::kSecond;
  dcfg.liveness.idle_timeout = 2 * util::kSecond;
  dcfg.liveness.stall_window = 200 * util::kMillisecond;
  dcfg.liveness.min_bytes_per_window = 1024;
  core::DepotApp depot(*h.depot_stack, dcfg, nullptr);

  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = true;
  sink_cfg.payload_seed = 50;
  core::SinkServer sink(*h.dst_stack, kSink, sink_cfg, nullptr);
  bool complete = false;
  bool verified = false;
  sink.on_complete = [&](core::SinkApp& app) {
    complete = true;
    verified = app.verified();
  };

  core::SourceApp src(*h.src_stack, {h.depot_node->id(), kDepot},
                      h.source_config(4 * util::kMiB, 50, 7), nullptr);
  src.start();

  ASSERT_TRUE(h.run_until([&] { return complete; }));
  EXPECT_TRUE(verified);
  EXPECT_EQ(depot.stats().sessions_failed, 0u);
  EXPECT_EQ(depot.stats().timeouts_header, 0u);
  EXPECT_EQ(depot.stats().timeouts_dial, 0u);
  EXPECT_EQ(depot.stats().timeouts_idle, 0u);
  EXPECT_EQ(depot.stats().timeouts_stall, 0u);
}

// Graceful drain in the simulator: the in-flight session finishes with
// its digest verified, the late arrival is refused, and the drain report
// accounts for both.
TEST(SimLiveness, DrainFinishesInFlightAndRefusesNew) {
  SimHarness h;
  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  dcfg.liveness.drain_deadline = 600ll * util::kSecond;
  core::DepotApp depot(*h.depot_stack, dcfg, nullptr);

  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = true;
  sink_cfg.payload_seed = 50;
  core::SinkServer sink(*h.dst_stack, kSink, sink_cfg, nullptr);
  bool complete = false;
  bool verified = false;
  sink.on_complete = [&](core::SinkApp& app) {
    complete = true;
    verified = app.verified();
  };

  core::SourceApp src(*h.src_stack, {h.depot_node->id(), kDepot},
                      h.source_config(8 * util::kMiB, 50, 7), nullptr);
  src.start();

  ASSERT_TRUE(h.run_until(
      [&] { return depot.stats().bytes_relayed > 64 * util::kKiB; }));
  depot.begin_drain();
  EXPECT_TRUE(depot.draining());
  EXPECT_FALSE(depot.drain_done());

  // A second session arriving mid-drain must be turned away.
  core::SourceApp late(*h.src_stack, {h.depot_node->id(), kDepot},
                       h.source_config(64 * util::kKiB, 51, 8), nullptr);
  late.start();

  bool drain_reported = false;
  depot.on_drain_done = [&](const live::DrainReport&) {
    drain_reported = true;
  };
  ASSERT_TRUE(h.run_until([&] { return complete && depot.drain_done(); }));
  EXPECT_TRUE(verified);
  EXPECT_TRUE(drain_reported);
  EXPECT_EQ(depot.stats().sessions_refused_drain, 1u);

  const live::DrainReport& rep = depot.drain_report();
  EXPECT_FALSE(rep.expired);
  EXPECT_EQ(rep.in_flight_at_start, 1u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.refused, 1u);
  EXPECT_EQ(rep.aborted, 0u);
}

// The acceptance property: with liveness left at its default (off), two
// same-seed runs — live instruments attached — export byte-identical
// metrics, and no liveness counter ever moves. Embedding the subsystem
// changes nothing until a config opts in.
TEST(SimLiveness, DefaultOffKeepsSameSeedExportsByteIdentical) {
  auto run_once = [](std::string* exported) {
    SimHarness h(/*seed=*/99);
    metrics::Registry reg;
    live::LiveMetrics live_metrics(reg);

    core::DepotConfig dcfg;  // liveness defaults: every deadline disabled
    dcfg.port = kDepot;
    core::DepotApp depot(*h.depot_stack, dcfg, nullptr);
    depot.set_live_metrics(&live_metrics);

    core::SinkConfig sink_cfg;
    sink_cfg.expect_header = true;
    sink_cfg.verify_payload = true;
    sink_cfg.payload_seed = 50;
    core::SinkServer sink(*h.dst_stack, kSink, sink_cfg, nullptr);
    bool complete = false;
    sink.on_complete = [&](core::SinkApp&) { complete = true; };

    core::SourceApp src(*h.src_stack, {h.depot_node->id(), kDepot},
                        h.source_config(2 * util::kMiB, 50, 7), nullptr);
    src.start();
    if (!h.run_until([&] { return complete; })) return false;

    EXPECT_EQ(depot.stats().timeouts_header, 0u);
    EXPECT_EQ(depot.stats().timeouts_dial, 0u);
    EXPECT_EQ(depot.stats().timeouts_idle, 0u);
    EXPECT_EQ(depot.stats().timeouts_stall, 0u);

    std::ostringstream os;
    metrics::write_jsonl(reg, os);
    *exported = os.str();
    return true;
  };

  std::string first, second;
  ASSERT_TRUE(run_once(&first));
  ASSERT_TRUE(run_once(&second));
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace lsl::test
