// Unit tests of the discrete-event simulator: event queue semantics (FIFO
// lanes included, and a differential check against a naive reference
// queue), link timing/loss/queueing, routing, and the cross-traffic
// generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/cross_traffic.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::sim {
namespace {

using util::EventId;
using util::EventLane;
using util::EventQueue;
using util::kInvalidEvent;
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

TEST(EventQueue, SizeCountsOnlyLiveEventsAfterCancels) {
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
  EXPECT_FALSE(q.step());  // every event was cancelled
  EXPECT_EQ(q.executed_count(), 0u);
}

// drained() tells a finished run from one paused by run_until() or inside
// its last callback.
TEST(EventQueue, DrainedOnlyOnceStepFindsNothingToRun) {
  EventQueue q;
  EXPECT_FALSE(q.drained());
  bool in_last = true;
  q.schedule_at(10, [&] { in_last = q.drained(); });
  q.run_until(20);
  EXPECT_FALSE(in_last);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.drained());
  q.run();
  EXPECT_TRUE(q.drained());
  const EventId id = q.schedule_at(30, [] {});
  EXPECT_FALSE(q.drained());
  q.cancel(id);
  EXPECT_TRUE(q.drained());
  q.schedule_at(40, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.drained());
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.drained());
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

// --- event lanes -------------------------------------------------------------

TEST(EventLane, RunsInPushOrderAndTiesWithOrdinaryEventsBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  int lane_runs = 0;
  EventLane lane(q, [&] { order.push_back(100 + lane_runs++); });
  q.schedule_at(10, [&] { order.push_back(1); });
  lane.push_at(10);  // ties with the event above, scheduled after it
  q.schedule_at(10, [&] { order.push_back(2); });
  lane.push_at(10);
  lane.push_at(20);
  q.schedule_at(15, [&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 6u);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 100, 2, 101, 3, 102}));
  EXPECT_EQ(q.executed_count(), 6u);
  EXPECT_EQ(q.now(), 20);
}

TEST(EventLane, DestroyingTheLaneDropsItsPendingEvents) {
  EventQueue q;
  int lane_runs = 0;
  int other = 0;
  {
    EventLane lane(q, [&] { ++lane_runs; });
    lane.push_at(5);
    lane.push_at(7);
    q.schedule_at(6, [&] { ++other; });
    q.run_until(5);
    EXPECT_EQ(q.size(), 2u);
  }
  EXPECT_EQ(q.size(), 1u);
  q.run();
  EXPECT_EQ(lane_runs, 1);
  EXPECT_EQ(other, 1);
  // The freed lane slot serves ordinary events again.
  q.schedule_at(50, [&] { ++other; });
  q.run();
  EXPECT_EQ(other, 2);
}

TEST(EventLane, CallbackMayPushOntoItsOwnLane) {
  EventQueue q;
  std::vector<util::SimTime> at;
  std::unique_ptr<EventLane> lane;
  lane = std::make_unique<EventLane>(q, [&] {
    at.push_back(q.now());
    if (at.size() < 4) lane->push_in(3);
  });
  lane->push_at(1);
  q.run();
  EXPECT_EQ(at, (std::vector<util::SimTime>{1, 4, 7, 10}));
}

// --- differential check against a naive reference queue ----------------------

/// The queue's contract, implemented the obvious way: a vector sorted by
/// (time, scheduling order), cancel by search, lanes as tagged entries.
class ReferenceQueue {
 public:
  class Lane {
   public:
    Lane(ReferenceQueue& q, std::function<void()> cb)
        : q_(q), id_(static_cast<int>(q.lane_cbs_.size())) {
      q.lane_cbs_.push_back(std::move(cb));
    }
    ~Lane() {
      std::erase_if(q_.pending_, [this](const Entry& e) { return e.lane == id_; });
    }
    void push_at(util::SimTime t) { q_.insert(t, id_, nullptr); }

   private:
    ReferenceQueue& q_;
    int id_;
  };

  util::SimTime now() const { return now_; }
  EventId schedule_at(util::SimTime t, std::function<void()> cb) {
    return insert(t, -1, std::move(cb));
  }
  EventId schedule_in(util::SimDuration d, std::function<void()> cb) {
    return schedule_at(now_ + std::max<util::SimDuration>(d, 0), std::move(cb));
  }
  void cancel(EventId id) {
    std::erase_if(pending_,
                  [id](const Entry& e) { return e.lane < 0 && e.id == id; });
  }
  std::size_t size() const { return pending_.size(); }
  std::uint64_t executed_count() const { return executed_; }
  bool step() { return fire_next(std::numeric_limits<util::SimTime>::max()); }
  void run_until(util::SimTime deadline) {
    while (fire_next(deadline)) {
    }
    now_ = std::max(now_, deadline);
  }
  void run() {
    while (step()) {
    }
  }

 private:
  struct Entry {
    util::SimTime time;
    std::uint64_t seq;
    EventId id;
    int lane;  ///< -1 for an ordinary event
    std::function<void()> cb;
  };

  EventId insert(util::SimTime t, int lane, std::function<void()> cb) {
    const std::uint64_t seq = next_seq_++;
    Entry e{std::max(t, now_), seq, seq, lane, std::move(cb)};
    const auto at = std::upper_bound(
        pending_.begin(), pending_.end(), e, [](const Entry& a, const Entry& b) {
          return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
    const EventId id = e.id;
    pending_.insert(at, std::move(e));
    return id;
  }
  bool fire_next(util::SimTime deadline) {
    if (pending_.empty() || pending_.front().time > deadline) return false;
    Entry e = std::move(pending_.front());
    pending_.erase(pending_.begin());
    now_ = e.time;
    ++executed_;
    if (e.lane >= 0) {
      lane_cbs_[static_cast<std::size_t>(e.lane)]();
    } else {
      e.cb();
    }
    return true;
  }

  std::vector<Entry> pending_;
  std::vector<std::function<void()>> lane_cbs_;
  util::SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

/// What a driven queue did: every run as (tag, time), and after every
/// operation its (now, size, executed_count).
struct QueueTrace {
  std::vector<std::pair<int, util::SimTime>> fired;
  std::vector<std::tuple<util::SimTime, std::size_t, std::uint64_t>> checks;
};

/// A seeded random mix of schedule_at/schedule_in (past times included),
/// cancels of any id ever issued (live, fired, cancelled, slot reused),
/// lane pushes that tie with ordinary events, lanes created and destroyed
/// with events pending, events scheduled from inside callbacks, step() and
/// run_until(). Both queues see the same operations as long as they fire
/// the same events in the same order.
template <typename Q, typename L>
QueueTrace drive_queue(std::uint64_t seed) {
  Q q;
  util::Rng rng(seed);
  QueueTrace trace;
  std::vector<EventId> ids;
  std::vector<std::unique_ptr<L>> lanes;
  std::vector<util::SimTime> lane_last;
  int next_tag = 0;

  std::function<void(int)> on_fire;
  const auto schedule = [&](util::SimTime at, bool relative) {
    const int tag = next_tag++;
    auto cb = [&on_fire, tag] { on_fire(tag); };
    ids.push_back(relative ? q.schedule_in(at, cb) : q.schedule_at(at, cb));
  };
  on_fire = [&](int tag) {
    trace.fired.emplace_back(tag, q.now());
    if (rng.uniform_int(0, 3) == 0) {
      schedule(static_cast<util::SimDuration>(rng.uniform_int(0, 6)), true);
    }
  };

  for (int op = 0; op < 600; ++op) {
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    };
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
        schedule(q.now() + static_cast<util::SimTime>(rng.uniform_int(0, 24)) - 4,
                 false);
        break;
      case 2:
        schedule(static_cast<util::SimDuration>(rng.uniform_int(0, 20)) - 2,
                 true);
        break;
      case 3:
      case 4:
        if (!ids.empty()) q.cancel(ids[pick(ids.size())]);
        break;
      case 5:
      case 6: {
        if (lanes.size() < 8 && rng.uniform_int(0, 4) == 0) {
          const int li = static_cast<int>(lanes.size());
          lanes.push_back(std::make_unique<L>(q, [&trace, &q, li] {
            trace.fired.emplace_back(-1 - li, q.now());
          }));
          lane_last.push_back(0);
        }
        if (lanes.empty()) break;
        const std::size_t li = pick(lanes.size());
        if (!lanes[li]) break;
        const util::SimTime t = std::max(
            lane_last[li],
            q.now() + static_cast<util::SimTime>(rng.uniform_int(0, 5)));
        lane_last[li] = t;
        lanes[li]->push_at(t);
        break;
      }
      case 7:
        if (!lanes.empty()) lanes[pick(lanes.size())].reset();
        break;
      case 8:
        q.run_until(q.now() + static_cast<util::SimTime>(rng.uniform_int(0, 12)));
        break;
      default:
        q.step();
        break;
    }
    trace.checks.emplace_back(q.now(), q.size(), q.executed_count());
  }
  q.run();
  trace.checks.emplace_back(q.now(), q.size(), q.executed_count());
  return trace;
}

TEST(EventQueue, MatchesNaiveReferenceOnRandomMixes) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const QueueTrace got = drive_queue<EventQueue, EventLane>(seed);
    const QueueTrace want =
        drive_queue<ReferenceQueue, ReferenceQueue::Lane>(seed);
    ASSERT_EQ(got.fired, want.fired) << "seed " << seed;
    ASSERT_EQ(got.checks, want.checks) << "seed " << seed;
    ASSERT_GT(got.fired.size(), 100u) << "seed " << seed;
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

// Loss, jitter and a standing queue together: the link holds each surviving
// packet from enqueue to delivery, and a wire loss only holds its place in
// the drop-tail queue until it departs. Survivors must come out in send
// order, all of them, and none later than its own queueing, serialization
// and propagation allow, so a lost packet ahead never stalls the ones
// behind it.
TEST(Link, LossJitterAndStandingQueueDeliverEverySurvivorInOrder) {
  Simulator sim(5);
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);  // 1 us per byte: 128 us per packet
  cfg.delay = 2 * kMillisecond;
  cfg.jitter = 3 * kMillisecond;  // far beyond the serialization gap
  cfg.queue_bytes = 16 * 128;     // a 16-packet drop-tail buffer
  cfg.loss_rate = 0.2;
  std::vector<util::SimTime> sent_at(1);  // indexed by serial
  std::vector<std::uint64_t> serials;
  Link link(sim, "l", cfg, [&](Packet&& p) {
    // The newest packet could have waited behind a full queue, then
    // serialized, then taken the longest propagation delay.
    const util::SimTime bound =
        sent_at[p.serial] + (cfg.queue_bytes + 128) * kMicrosecond +
        cfg.delay + cfg.jitter;
    EXPECT_LE(sim.now(), bound) << "packet " << p.serial << " stalled";
    serials.push_back(p.serial);
  });
  // Bursts of 6 packets every 500 us offer 1.5x the line rate: the queue
  // stands, overflows, and drains between bursts of bursts.
  std::uint64_t next_serial = 1;
  for (int burst = 0; burst < 400; ++burst) {
    const util::SimTime at = burst * 500 * kMicrosecond +
                             (burst / 50) * 20 * kMillisecond;
    sim.events().schedule_at(at, [&] {
      for (int i = 0; i < 6; ++i) {
        Packet p = make_packet(0, 1, 100);  // 128 bytes on the wire
        p.serial = next_serial++;
        sent_at.push_back(sim.now());
        link.send(std::move(p));
      }
    });
  }
  sim.events().run();

  const std::uint64_t sent = next_serial - 1;
  const LinkStats& st = link.stats();
  EXPECT_GT(st.drops_queue, 0u);
  EXPECT_GT(st.drops_wire, 0u);
  EXPECT_EQ(st.packets_sent, sent - st.drops_queue);
  ASSERT_EQ(serials.size(), sent - st.drops_wire - st.drops_queue);
  for (std::size_t i = 1; i < serials.size(); ++i) {
    ASSERT_LT(serials[i - 1], serials[i]) << "reordered at " << i;
  }
  EXPECT_EQ(link.queued_bytes(), 0u);
}

// A packet counts as sent, and a wire loss as dropped, once it has departed;
// until then it occupies the queue. Reads between enqueue and departure and
// after the run see exactly that, whenever they are made.
TEST(Link, StatsAndQueuedBytesReadAsOfNow) {
  struct Reading {
    util::SimTime at;
    std::uint64_t sent, bytes, drops_queue, drops_wire;
    std::size_t max_queue, queued;
    bool operator==(const Reading&) const = default;
  };
  Simulator sim(6);
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);  // 1 us per byte: 128 us per packet
  cfg.delay = kMillisecond;
  cfg.queue_bytes = 4 * 128;
  cfg.loss_rate = 0.3;
  int delivered = 0;
  Link link(sim, "l", cfg, [&](Packet&&) { ++delivered; });
  std::vector<Reading> got;
  const auto read = [&] {
    const LinkStats st = link.stats();
    got.push_back({sim.now(), st.packets_sent, st.bytes_sent,
                   st.drops_queue, st.drops_wire, st.max_queue_bytes,
                   link.queued_bytes()});
  };
  // Six packets into a four-packet buffer, two more once two have left.
  for (int i = 0; i < 6; ++i) link.send(make_packet(0, 1, 100));
  read();
  sim.events().schedule_at(300 * kMicrosecond, [&] {
    link.send(make_packet(0, 1, 100));
    link.send(make_packet(0, 1, 100));
  });
  // 256 us is the second packet's departure instant: it still counts.
  for (const int us : {100, 256, 300, 500, 700, 900}) {
    sim.events().schedule_at(us * kMicrosecond, read);
  }
  sim.events().run();
  read();

  const util::SimTime us = kMicrosecond;
  const std::vector<Reading> want = {
      {0, 0, 0, 2, 0, 512, 512},          {100 * us, 0, 0, 2, 0, 512, 512},
      {256 * us, 1, 128, 2, 0, 512, 384}, {300 * us, 2, 256, 2, 1, 512, 512},
      {500 * us, 3, 384, 2, 1, 512, 384}, {700 * us, 5, 640, 2, 2, 512, 128},
      {900 * us, 6, 768, 2, 3, 512, 0},   {1512 * us, 6, 768, 2, 3, 512, 0},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "reading " << i << " at " << got[i].at;
  }
  EXPECT_EQ(delivered, 3);
}

// With no propagation delay the run ends at the last delivery, before the
// losses queued behind it depart; a read after the run still counts them.
TEST(Link, StatsAfterDrainedRunCountTrailingLosses) {
  Simulator sim(6);
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);
  cfg.delay = 0;
  cfg.loss_rate = 0.5;
  util::SimTime last_delivery = 0;
  Link link(sim, "l", cfg, [&](Packet&&) { last_delivery = sim.now(); });
  for (int i = 0; i < 8; ++i) link.send(make_packet(0, 1, 100));
  sim.events().run();
  // The fourth packet is the last survivor; the four behind it are lost
  // and depart at 640 to 1024 us, after the clock has stopped.
  EXPECT_EQ(last_delivery, 512 * kMicrosecond);
  EXPECT_EQ(link.stats().packets_sent, 8u);
  EXPECT_EQ(link.stats().drops_wire, 5u);
  EXPECT_EQ(link.queued_bytes(), 0u);
}

// The run is over only once step() or run() finds nothing left to run. A
// read from inside the last delivery's callback, or after run_until() has
// taken the clock past the last event, counts only the losses departed by
// now(); the ones still serializing count once the run drains.
TEST(Link, StatsBeforeTheRunDrainsCountOnlyDepartedLosses) {
  Simulator sim(6);
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);  // 128 us per packet
  cfg.delay = 100 * kMicrosecond;
  cfg.loss_rate = 0.5;
  Link* link = nullptr;
  LinkStats last_callback;
  std::size_t last_callback_queued = 0;
  Link l(sim, "l", cfg, [&](Packet&&) {
    last_callback = link->stats();
    last_callback_queued = link->queued_bytes();
  });
  link = &l;
  for (int i = 0; i < 8; ++i) l.send(make_packet(0, 1, 100));
  // The fourth packet is the last survivor, delivered at 612 us; the four
  // behind it are lost and depart at 640 to 1024 us.
  sim.events().run_until(700 * kMicrosecond);
  EXPECT_TRUE(sim.events().empty());
  EXPECT_EQ(last_callback.packets_sent, 4u);
  EXPECT_EQ(last_callback.drops_wire, 1u);
  EXPECT_EQ(last_callback_queued, 4u * 128);
  EXPECT_EQ(l.stats().packets_sent, 5u);
  EXPECT_EQ(l.stats().drops_wire, 2u);
  EXPECT_EQ(l.queued_bytes(), 3u * 128);
  sim.events().run();
  EXPECT_EQ(l.stats().packets_sent, 8u);
  EXPECT_EQ(l.stats().drops_wire, 5u);
  EXPECT_EQ(l.queued_bytes(), 0u);
}

// The departure of a packet is not an event: each packet costs exactly one,
// its delivery, and a packet the drop-tail queue refuses costs none.
TEST(Link, OneEventPerDeliveredPacket) {
  Simulator sim(7);
  LinkConfig cfg;
  cfg.queue_bytes = 64 * 1028;
  int delivered = 0;
  Link link(sim, "l", cfg, [&](Packet&&) { ++delivered; });
  for (int burst = 0; burst < 10; ++burst) {
    sim.events().schedule_at(burst * 10 * kMillisecond, [&] {
      for (int i = 0; i < 100; ++i) link.send(make_packet(0, 1, 1000));
    });
  }
  sim.events().run();
  EXPECT_EQ(delivered, 640);
  EXPECT_EQ(link.stats().drops_queue, 360u);
  EXPECT_EQ(sim.events().executed_count(), 10u + 640u);
}

// Loss is drawn when a packet is enqueued, so a new loss rate (a blackhole
// or flap fault) decides the fate of packets sent after it is set; packets
// already queued keep theirs.
TEST(Link, SetLossRateAppliesToPacketsEnqueuedAfterIt) {
  Simulator sim(9);
  LinkConfig cfg;
  cfg.rate = util::DataRate::mbps(8);  // 128 us per packet
  cfg.delay = kMillisecond;
  std::vector<std::uint64_t> serials;
  Link link(sim, "l", cfg, [&](Packet&& p) { serials.push_back(p.serial); });
  std::uint64_t next_serial = 1;
  const auto send = [&] {
    Packet p = make_packet(0, 1, 100);
    p.serial = next_serial++;
    link.send(std::move(p));
  };
  for (int i = 0; i < 4; ++i) send();  // queued until 512 us
  link.set_loss_rate(1.0);
  for (int i = 0; i < 2; ++i) send();
  sim.events().schedule_at(2 * kMillisecond, [&] {
    for (int i = 0; i < 3; ++i) send();  // still queued when the rate drops
    link.set_loss_rate(0.0);
    send();
  });
  sim.events().run();
  EXPECT_EQ(serials, (std::vector<std::uint64_t>{1, 2, 3, 4, 10}));
  EXPECT_EQ(link.stats().drops_wire, 5u);
  EXPECT_EQ(link.stats().packets_sent, 10u);
}

// A send at exactly the nanosecond a queued packet departs still finds it in
// the queue. That is the order a departure event scheduled when the packet
// began serializing would take against a send scheduled before then, as
// every delivery or timer due at that instant is (they are scheduled a
// propagation delay or more ahead).
TEST(Link, SendAtDepartureInstantSeesPacketStillQueued) {
  struct Case {
    int at_us;              ///< a queued packet's departure
    std::uint32_t payload;  ///< sized so the decision hinges on that packet
    bool scheduled_before_sends;
  };
  for (const Case c : {Case{256, 200, false}, Case{128, 72, true},
                       Case{128, 72, false}}) {
    Simulator sim(1);
    LinkConfig cfg;
    cfg.rate = util::DataRate::mbps(8);  // 128 us per 128-byte packet
    cfg.queue_bytes = 3 * 128;
    Link link(sim, "l", cfg, [](Packet&&) {});
    const auto schedule_send = [&] {
      sim.events().schedule_at(c.at_us * kMicrosecond, [&] {
        link.send(make_packet(0, 1, c.payload));
      });
    };
    if (c.scheduled_before_sends) schedule_send();
    // Three packets fill the queue; they depart at 128, 256 and 384 us.
    for (int i = 0; i < 3; ++i) link.send(make_packet(0, 1, 100));
    if (!c.scheduled_before_sends) schedule_send();
    sim.events().run();
    // The packet departing at the send's instant (and any behind it) still
    // fills the queue, so the timed packet is dropped, even when it was
    // scheduled after that packet began serializing (the last case).
    EXPECT_EQ(link.stats().drops_queue, 1u) << "at " << c.at_us << " us";
    EXPECT_EQ(link.stats().packets_sent, 3u);
  }
}

// --- packet ------------------------------------------------------------------

// SACK options cost 2 + 8 bytes per block, padded to 4-byte alignment.
TEST(Packet, WireBytesCountSackBlocks) {
  Packet p;
  p.proto = Protocol::kTcp;
  p.payload_bytes = 100;
  const std::uint32_t expected[] = {152, 164, 172, 180};
  for (std::uint64_t blocks = 0; blocks <= 3; ++blocks) {
    EXPECT_EQ(p.wire_bytes(), expected[blocks]) << blocks << " blocks";
    if (blocks < 3) p.tcp.sack.push_back({1000 * blocks, 1000 * blocks + 10});
  }
  Packet ack;
  ack.proto = Protocol::kTcp;
  EXPECT_EQ(ack.wire_bytes(), kTcpIpHeaderBytes);
  ack.tcp.sack.push_back({5, 9});
  EXPECT_EQ(ack.wire_bytes(), kTcpIpHeaderBytes + 12);
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
