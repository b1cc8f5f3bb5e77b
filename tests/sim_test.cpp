// Unit tests of the discrete-event simulator: event queue semantics, link
// timing/loss/queueing, routing, and the cross-traffic generator.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cross_traffic.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "util/units.hpp"

namespace lsl::sim {
namespace {

using util::kMicrosecond;
using util::kMillisecond;
using util::kSecond;

// --- event queue -------------------------------------------------------------

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  const EventId a = q.schedule_at(1, [] {});
  q.schedule_at(2, [] {});
  q.step();     // fires a
  q.cancel(a);  // must not disturb accounting
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, CancelInvalidIdIsNoOp) {
  EventQueue q;
  q.cancel(kInvalidEvent);
  q.cancel(9999);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  q.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.size(), 1u);
}

// A cancelled entry due before the deadline must not let the next live
// event (due after it) run early.
TEST(EventQueue, RunUntilSkipsCancelledTopWithoutOvershooting) {
  EventQueue q;
  int fired = 0;
  const EventId early = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  q.cancel(early);
  q.run_until(20);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.size(), 1u);
  q.run_until(30);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] {
    q.schedule_in(5, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueue, PastScheduleClampsToNow) {
  EventQueue q;
  q.schedule_at(100, [&] {
    // Scheduling "in the past" must not rewind time.
    q.schedule_at(1, [&] { EXPECT_EQ(q.now(), 100); });
  });
  q.run();
}

// A freed callback slot is reused by the next schedule; the old id must no
// longer reach it.
TEST(EventQueue, StaleCancelAfterSlotReuseLeavesNewEventAlone) {
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.schedule_at(10, [&] { fired.push_back(1); });
  ASSERT_TRUE(q.step());  // a fires; its slot is free again
  q.schedule_at(20, [&] { fired.push_back(2); });
  q.cancel(a);  // fired id
  EXPECT_EQ(q.size(), 1u);

  const EventId c = q.schedule_at(30, [&] { fired.push_back(3); });
  q.cancel(c);
  q.schedule_at(40, [&] { fired.push_back(4); });
  q.cancel(c);  // cancelled id, slot since reused
  EXPECT_EQ(q.size(), 2u);
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
}

TEST(EventQueue, SameTimeTiesKeepSchedulingOrderAcrossCancelAndReuse) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.schedule_at(100, [&order, i] { order.push_back(i); }));
  }
  // Free the low slots, then schedule more at the same time: the newcomers
  // take the freed slots but must still fire after every earlier event.
  for (int i : {0, 2, 3}) q.cancel(ids[static_cast<std::size_t>(i)]);
  for (int i = 8; i < 12; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.cancel(ids[5]);
  q.schedule_at(100, [&order] { order.push_back(12); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 6, 7, 8, 9, 10, 11, 12}));
}

// The running callback's storage must survive the slot table growing under
// it (the asan leg checks the use after the loop).
TEST(EventQueue, CallbackSchedulingManyEventsGrowsTableSafely) {
  EventQueue q;
  int fired = 0;
  const std::vector<int> payload(64, 7);  // forces a heap-held callback
  q.schedule_at(1, [&q, &fired, payload] {
    for (int i = 0; i < 10000; ++i) {
      q.schedule_in(i % 7, [&fired, payload] { fired += payload[0] - 6; });
    }
    EXPECT_EQ(payload.size(), 64u);
    EXPECT_EQ(payload[63], 7);
  });
  q.run();
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(q.executed_count(), 10001u);
}

TEST(EventQueue, SizeCountsOnlyLiveEventsWhileTombstonesWait) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.schedule_at(10 + i, [] {}));
  q.cancel(ids[0]);
  q.cancel(ids[1]);
  q.cancel(ids[3]);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.empty());
  q.cancel(ids[2]);
  q.cancel(ids[4]);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());  // only tombstones were left
  EXPECT_EQ(q.executed_count(), 0u);
}

TEST(EventQueue, IdsAreValidAndStrictlyIncreasing) {
  EventQueue q;
  EventId last = kInvalidEvent;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i) {
      const EventId id = q.schedule_in(i, [] {});
      EXPECT_NE(id, kInvalidEvent);
      EXPECT_GT(id, last);
      last = id;
      ids.push_back(id);
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    q.run_until(q.now() + 10);
  }
}

// --- link --------------------------------------------------------------------

Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = Protocol::kUdp;
  p.payload_bytes = payload;
  return p;
}

TEST(Link, SerializationPlusPropagationTiming) {
  Simulator sim(1);
  std::vector<util::SimTime> arrivals;
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);  // 1 us per byte
  cfg.delay = kMillisecond;
  Link link(sim, "l", cfg, [&](Packet&&) { arrivals.push_back(sim.now()); });

  link.send(make_packet(0, 1, 972));  // +28 UDP/IP header = 1000 bytes
  sim.events().run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1000 * kMicrosecond + kMillisecond);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim(1);
  std::vector<util::SimTime> arrivals;
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);
  cfg.delay = 0;
  Link link(sim, "l", cfg, [&](Packet&&) { arrivals.push_back(sim.now()); });
  link.send(make_packet(0, 1, 972));
  link.send(make_packet(0, 1, 972));
  sim.events().run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1000 * kMicrosecond);
}

TEST(Link, DropTailQueueAccounting) {
  Simulator sim(1);
  int delivered = 0;
  LinkConfig cfg;
  cfg.rate = util::DataRate::kbps(8);  // 1 byte per ms: glacial
  cfg.delay = 0;
  cfg.queue_bytes = 2500;
  Link link(sim, "l", cfg, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 5; ++i) link.send(make_packet(0, 1, 972));
  sim.events().run();
  EXPECT_EQ(delivered + static_cast<int>(link.stats().drops_queue), 5);
  EXPECT_GT(link.stats().drops_queue, 0u);
  // At least one packet is always accepted even if it exceeds the queue.
  EXPECT_GE(delivered, 2);
}

TEST(Link, BernoulliLossRateApproximate) {
  Simulator sim(2);
  int delivered = 0;
  LinkConfig cfg;
  cfg.rate = util::DataRate::gbps(10);
  cfg.delay = 0;
  cfg.queue_bytes = 1 << 30;
  cfg.loss_rate = 0.25;
  Link link(sim, "l", cfg, [&](Packet&&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(make_packet(0, 1, 100));
  sim.events().run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.75, 0.02);
  EXPECT_EQ(link.stats().drops_wire + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(n));
}

TEST(Link, GilbertElliottLossBurstier) {
  // Same average loss, but GE should produce consecutive-loss runs.
  Simulator sim(3);
  std::vector<bool> outcome;
  LinkConfig cfg;
  cfg.rate = util::DataRate::gbps(10);
  cfg.delay = 0;
  cfg.queue_bytes = 1 << 30;
  cfg.gilbert_elliott = true;
  cfg.ge_good_to_bad = 0.01;
  cfg.ge_bad_to_good = 0.2;
  cfg.ge_loss_bad = 0.8;
  cfg.ge_loss_good = 0.0;
  int seq = 0;
  Link link(sim, "l", cfg, [&](Packet&& p) {
    (void)p;
    ++seq;
  });
  const int n = 50000;
  for (int i = 0; i < n; ++i) link.send(make_packet(0, 1, 100));
  sim.events().run();
  const auto drops = link.stats().drops_wire;
  EXPECT_GT(drops, 500u);   // bad state visits happen
  EXPECT_LT(drops, 10000u); // but loss is far below the bad-state rate
}

TEST(Link, JitterNeverReorders) {
  Simulator sim(4);
  std::vector<std::uint64_t> serials;
  LinkConfig cfg;
  cfg.rate = util::DataRate::gbps(1);
  cfg.delay = kMillisecond;
  cfg.jitter = 5 * kMillisecond;  // jitter >> serialization gap
  Link link(sim, "l", cfg,
            [&](Packet&& p) { serials.push_back(p.serial); });
  for (std::uint64_t i = 1; i <= 200; ++i) {
    auto p = make_packet(0, 1, 100);
    p.serial = i;
    link.send(std::move(p));
  }
  sim.events().run();
  ASSERT_EQ(serials.size(), 200u);
  for (std::size_t i = 1; i < serials.size(); ++i) {
    EXPECT_LT(serials[i - 1], serials[i]) << "reordered at " << i;
  }
}

// --- network / routing -------------------------------------------------------

TEST(Network, RoutesAcrossMultipleHops) {
  Network net(1);
  Node& a = net.add_host("a");
  Node& r1 = net.add_router("r1");
  Node& r2 = net.add_router("r2");
  Node& b = net.add_host("b");
  LinkConfig l;
  l.rate = util::DataRate::mbps(100);
  l.delay = kMillisecond;
  net.connect(a, r1, l);
  net.connect(r1, r2, l);
  net.connect(r2, b, l);
  net.compute_routes();

  int got = 0;
  b.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { ++got; });
  a.send(make_packet(a.id(), b.id(), 100));
  net.run();
  EXPECT_EQ(got, 1);
}

TEST(Network, PicksShorterDelayPath) {
  Network net(1);
  Node& a = net.add_host("a");
  Node& fast = net.add_router("fast");
  Node& slow = net.add_router("slow");
  Node& b = net.add_host("b");
  LinkConfig quick;
  quick.delay = kMillisecond;
  LinkConfig laggy;
  laggy.delay = 10 * kMillisecond;
  net.connect(a, fast, quick);
  net.connect(fast, b, quick);
  net.connect(a, slow, laggy);
  net.connect(slow, b, laggy);
  net.compute_routes();

  bool got = false;
  b.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 100));
  net.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.link_between(a.id(), fast.id())->stats().packets_sent, 1u);
  EXPECT_EQ(net.link_between(a.id(), slow.id())->stats().packets_sent, 0u);
}

TEST(Network, HostsDoNotForwardTransit) {
  Network net(1);
  Node& a = net.add_host("a");
  Node& mid = net.add_host("mid");  // host, not router
  Node& b = net.add_host("b");
  LinkConfig l;
  net.connect(a, mid, l);
  net.connect(mid, b, l);
  net.compute_routes();

  bool got = false;
  b.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 100));
  net.run();
  EXPECT_FALSE(got);  // no router path exists
}

TEST(Network, DuplicateNodeNameRejected) {
  Network net(1);
  net.add_host("x");
  EXPECT_THROW(net.add_host("x"), std::invalid_argument);
}

TEST(Network, LoopbackDelivery) {
  Network net(1);
  Node& a = net.add_host("a");
  bool got = false;
  a.set_protocol_handler(Protocol::kUdp, [&](Packet&&) { got = true; });
  a.send(make_packet(a.id(), a.id(), 10));
  net.run();
  EXPECT_TRUE(got);
}

TEST(CrossTraffic, AverageRateNearConfigured) {
  Network net(7);
  Node& a = net.add_host("a");
  Node& b = net.add_host("b");
  LinkConfig l;
  l.rate = util::DataRate::mbps(100);
  l.delay = kMillisecond;
  net.connect(a, b, l);
  net.compute_routes();
  b.set_protocol_handler(Protocol::kUdp, [](Packet&&) {});

  CrossTrafficConfig cfg;
  cfg.peak_rate = util::DataRate::mbps(9);
  cfg.mean_on = 100 * kMillisecond;
  cfg.mean_off = 200 * kMillisecond;  // duty 1/3 -> ~3 Mbit/s average
  OnOffUdpSource src(net, a, b.id(), cfg);
  src.start();
  net.run_until(20 * kSecond);
  src.stop();

  const double mbps =
      static_cast<double>(src.packets_sent()) * (1000 + 28) * 8 / 20.0 / 1e6;
  EXPECT_NEAR(mbps, 3.0, 1.0);
}

}  // namespace
}  // namespace lsl::sim
