// Session-resumption tests: the paper's §III mobility scenario. A client's
// sublink dies mid-transfer (roaming, address change); the client redials
// the depot with a kFlagResume header and the session continues on the SAME
// downstream connection — the far end never notices. Content integrity is
// asserted byte-for-byte in real-payload mode.
#include <gtest/gtest.h>

#include <memory>

#include "lsl/apps.hpp"
#include "lsl/depot.hpp"
#include "lsl/directory.hpp"
#include "lsl/payload.hpp"
#include "lsl/session_id.hpp"
#include "sim/network.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

constexpr sim::PortNum kSink = 5001;
constexpr sim::PortNum kDepot = 4000;

struct World {
  std::unique_ptr<sim::Network> net;
  sim::Node* src = nullptr;
  sim::Node* dst = nullptr;
  sim::Node* depot = nullptr;
  std::unique_ptr<tcp::TcpStack> src_stack, dst_stack, depot_stack;
  std::unique_ptr<core::DepotApp> depot_app;
  std::unique_ptr<core::SinkServer> sink;
  std::unique_ptr<core::SourceApp> source;
  core::SessionDirectory dir;

  bool sink_complete = false;
  bool verified = false;
  std::uint64_t received = 0;
};

std::unique_ptr<World> make_world(bool real, std::uint64_t bytes,
                                  util::SimDuration grace,
                                  std::uint64_t seed = 1,
                                  core::SessionLedger* ledger = nullptr) {
  auto w = std::make_unique<World>();
  w->net = std::make_unique<sim::Network>(seed);
  w->src = &w->net->add_host("src");
  w->dst = &w->net->add_host("dst");
  w->depot = &w->net->add_host("depot");
  sim::Node& r = w->net->add_router("r");
  sim::LinkConfig wan;
  wan.rate = util::DataRate::mbps(20);
  wan.delay = util::millis(10);
  w->net->connect(*w->src, r, wan);
  w->net->connect(r, *w->dst, wan);
  sim::LinkConfig dlink;
  dlink.rate = util::DataRate::mbps(100);
  dlink.delay = util::millis(1);
  w->net->connect(r, *w->depot, dlink);
  w->net->compute_routes();

  tcp::TcpConfig tcp;
  tcp.carry_data = real;
  w->src_stack = std::make_unique<tcp::TcpStack>(*w->net, *w->src, tcp);
  w->dst_stack = std::make_unique<tcp::TcpStack>(*w->net, *w->dst, tcp);
  w->depot_stack = std::make_unique<tcp::TcpStack>(*w->net, *w->depot, tcp);

  core::SessionDirectory* dirp = real ? nullptr : &w->dir;

  core::DepotConfig dcfg;
  dcfg.port = kDepot;
  dcfg.resume_grace = grace;
  w->depot_app = std::make_unique<core::DepotApp>(*w->depot_stack, dcfg, dirp);

  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = real;
  sink_cfg.payload_seed = 60;
  sink_cfg.ledger = ledger;
  w->sink = std::make_unique<core::SinkServer>(*w->dst_stack, kSink, sink_cfg,
                                               dirp);
  World* wp = w.get();
  w->sink->on_complete = [wp](core::SinkApp& app) {
    wp->sink_complete = true;
    wp->verified = app.verified();
    wp->received = app.payload_received();
  };

  core::SourceConfig scfg;
  scfg.payload_bytes = bytes;
  scfg.payload_seed = 60;
  scfg.use_header = true;
  scfg.resumable = true;
  util::Rng rng(9);
  scfg.header.session = core::SessionId::generate(rng);
  scfg.header.payload_length = bytes;
  scfg.header.hops = {{w->depot->id(), kDepot}};
  scfg.header.destination = {w->dst->id(), kSink};
  w->source = std::make_unique<core::SourceApp>(
      *w->src_stack, sim::Endpoint{w->depot->id(), kDepot}, scfg, dirp);
  return w;
}

void run_until_complete(World& w,
                        util::SimDuration cap = 3600ll * util::kSecond) {
  auto& ev = w.net->sim().events();
  while (!w.sink_complete && ev.now() <= cap && ev.step()) {
  }
  ev.run_until(ev.now() + 300 * util::kSecond);
}

TEST(Resume, MidTransferDisconnectResumesAndVerifies) {
  auto w = make_world(/*real=*/true, 2 * util::kMiB,
                      /*grace=*/30 * util::kSecond);
  w->source->start();
  // Kill the sublink once roughly a quarter of the payload has flowed.
  w->net->sim().events().schedule_in(util::millis(400), [&] {
    w->source->simulate_disconnect();
  });
  run_until_complete(*w);

  ASSERT_TRUE(w->sink_complete);
  EXPECT_TRUE(w->verified);  // every byte correct despite the rebind
  EXPECT_EQ(w->received, 2 * util::kMiB);
  EXPECT_EQ(w->source->resumes(), 1u);
  EXPECT_EQ(w->depot_app->stats().sessions_resumed, 1u);
  EXPECT_EQ(w->depot_app->stats().sessions_completed, 1u);
  EXPECT_EQ(w->depot_app->stats().sessions_failed, 0u);
  // The resume retransmitted some duplicate prefix (unacked in-flight data).
  EXPECT_GT(w->depot_app->stats().bytes_discarded, 0u);
}

TEST(Resume, MultipleDisconnectsSurvive) {
  auto w = make_world(true, 4 * util::kMiB, 30 * util::kSecond, 3);
  w->source->start();
  for (int i = 1; i <= 3; ++i) {
    w->net->sim().events().schedule_in(i * util::millis(350), [&] {
      w->source->simulate_disconnect();
    });
  }
  run_until_complete(*w);
  ASSERT_TRUE(w->sink_complete);
  EXPECT_TRUE(w->verified);
  EXPECT_EQ(w->received, 4 * util::kMiB);
  EXPECT_EQ(w->source->resumes(), 3u);
  EXPECT_EQ(w->depot_app->stats().sessions_resumed, 3u);
}

TEST(Resume, VirtualModeResumes) {
  auto w = make_world(/*real=*/false, 8 * util::kMiB, 30 * util::kSecond, 5);
  w->source->start();
  w->net->sim().events().schedule_in(util::seconds(1.0), [&] {
    w->source->simulate_disconnect();
  });
  run_until_complete(*w);
  ASSERT_TRUE(w->sink_complete);
  EXPECT_EQ(w->received, 8 * util::kMiB);
  EXPECT_EQ(w->source->resumes(), 1u);
}

TEST(Resume, GraceShorterThanReconnectAbortsDownstream) {
  auto w = make_world(false, 8 * util::kMiB, /*grace=*/util::millis(20), 9);
  // Reconfigure reconnect slower than the grace window.
  // (make_world built the source already; rebuild it with a longer delay.)
  core::SourceConfig scfg;
  scfg.payload_bytes = 8 * util::kMiB;
  scfg.payload_seed = 60;
  scfg.use_header = true;
  scfg.resumable = true;
  scfg.reconnect_backoff = [](std::uint64_t) { return util::millis(200); };
  util::Rng rng(9);
  scfg.header.session = core::SessionId::generate(rng);
  scfg.header.payload_length = scfg.payload_bytes;
  scfg.header.hops = {{w->depot->id(), kDepot}};
  scfg.header.destination = {w->dst->id(), kSink};
  w->source = std::make_unique<core::SourceApp>(
      *w->src_stack, sim::Endpoint{w->depot->id(), kDepot}, scfg, &w->dir);

  w->source->start();
  w->net->sim().events().schedule_in(util::seconds(1.0), [&] {
    w->source->simulate_disconnect();
  });
  auto& ev = w->net->sim().events();
  ev.run_until(120 * util::kSecond);
  EXPECT_FALSE(w->sink_complete);
  // Grace expiry failed the parked session; the late reconnect then found
  // no parked session and was refused (a second failure).
  EXPECT_GE(w->depot_app->stats().sessions_failed, 1u);
  EXPECT_EQ(w->depot_app->stats().sessions_resumed, 0u);
}

TEST(Resume, UnknownSessionResumeRefused) {
  auto w = make_world(false, util::kMiB, 30 * util::kSecond, 11);
  // Craft a source that claims to resume a session the depot never saw.
  core::SourceConfig scfg;
  scfg.payload_bytes = util::kMiB;
  scfg.use_header = true;
  util::Rng rng(123);
  scfg.header.session = core::SessionId::generate(rng);
  scfg.header.flags |= core::kFlagResume;
  scfg.header.resume_offset = 0;
  scfg.header.payload_length = scfg.payload_bytes;
  scfg.header.hops = {{w->depot->id(), kDepot}};
  scfg.header.destination = {w->dst->id(), kSink};
  auto rogue = std::make_unique<core::SourceApp>(
      *w->src_stack, sim::Endpoint{w->depot->id(), kDepot}, scfg, &w->dir);
  rogue->start();
  w->net->sim().events().run_until(60 * util::kSecond);
  EXPECT_EQ(w->depot_app->stats().sessions_failed, 1u);
  EXPECT_FALSE(w->sink_complete);
}

TEST(Resume, GapFailsResumeAndParkedSessionAtOnce) {
  // PROTOCOL.md §6: a resume offset beyond what the depot pulled is a gap.
  // The resuming connection and the parked session both fail at once,
  // without waiting out the grace period.
  auto w = make_world(false, 8 * util::kMiB, /*grace=*/60 * util::kSecond, 13);
  // A source that does not resume by itself: the reset below strands the
  // session parked at the depot.
  core::SourceConfig scfg;
  scfg.payload_bytes = 8 * util::kMiB;
  scfg.use_header = true;
  util::Rng rng(13);
  scfg.header.session = core::SessionId::generate(rng);
  scfg.header.payload_length = scfg.payload_bytes;
  scfg.header.hops = {{w->depot->id(), kDepot}};
  scfg.header.destination = {w->dst->id(), kSink};
  w->source = std::make_unique<core::SourceApp>(
      *w->src_stack, sim::Endpoint{w->depot->id(), kDepot}, scfg, &w->dir);
  w->source->start();

  // Scripted as events: each check reads the depot at its exact instant.
  auto& ev = w->net->sim().events();
  const core::DepotStats& st = w->depot_app->stats();
  std::uint64_t parked = 0;
  std::uint64_t failed_before = 0;
  std::uint64_t failed_after = 0;
  std::unique_ptr<core::SourceApp> rogue;
  ev.schedule_at(util::seconds(1.0),
                 [&] { w->depot_app->inject_upstream_reset(); });
  ev.schedule_at(util::seconds(1.5), [&] {
    parked = st.sessions_parked;
    failed_before = st.sessions_failed;
    // Claim the whole payload was delivered: far beyond what was pulled.
    scfg.header.flags |= core::kFlagResume;
    scfg.header.resume_offset = scfg.payload_bytes;
    rogue = std::make_unique<core::SourceApp>(
        *w->src_stack, sim::Endpoint{w->depot->id(), kDepot}, scfg, &w->dir);
    rogue->start();
  });
  // Far inside the 60 s grace.
  ev.schedule_at(util::seconds(3.0),
                 [&] { failed_after = st.sessions_failed; });
  ev.run_until(util::seconds(3.0));
  EXPECT_EQ(parked, 1u);
  EXPECT_EQ(failed_before, 0u);
  EXPECT_EQ(failed_after, 2u);
  EXPECT_EQ(st.sessions_resumed, 0u);
  EXPECT_FALSE(w->sink_complete);
}

TEST(Resume, DeathBeforeTheHeaderRedialsAFreshSession) {
  // The first connection dies 1 ms in, long before the depot can have read
  // a header. Nothing was acked, so the re-dial is a fresh session at 0: a
  // kFlagResume would name a session the depot never held, and be refused
  // on every attempt.
  auto w = make_world(/*real=*/true, 2 * util::kMiB,
                      /*grace=*/30 * util::kSecond, 17);
  w->source->start();
  w->net->sim().events().schedule_in(util::millis(1), [&] {
    w->source->simulate_disconnect();
  });
  auto& ev = w->net->sim().events();
  while (!w->sink_complete && ev.now() <= 30 * util::kSecond && ev.step()) {
  }

  ASSERT_TRUE(w->sink_complete);
  EXPECT_TRUE(w->verified);
  EXPECT_EQ(w->received, 2 * util::kMiB);
  EXPECT_EQ(w->source->resumes(), 1u);
  EXPECT_EQ(w->depot_app->stats().sessions_resumed, 0u);
}

TEST(Resume, MigrateDuringReconnectBackoff) {
  // A source waiting out its reconnect delay has no connection, but its
  // session is live: migrate abandons the wait and continues from the
  // sink's frontier.
  core::SessionLedger ledger(60);
  auto w = make_world(/*real=*/true, 2 * util::kMiB,
                      /*grace=*/30 * util::kSecond, 19, &ledger);
  util::Rng rng(9);  // make_world's session id
  const core::SessionId id = core::SessionId::generate(rng);
  auto& ev = w->net->sim().events();
  w->source->start();
  bool migrated = false;
  ev.schedule_in(util::millis(400), [&] { w->source->simulate_disconnect(); });
  // Inside the default 50 ms reconnect delay.
  ev.schedule_in(util::millis(420), [&] {
    const std::uint64_t floor = ledger.frontier(id);
    migrated = w->source->migrate({w->depot->id(), kDepot},
                                  {{w->depot->id(), kDepot}}, floor);
  });
  while (!ledger.completed(id) && ev.now() <= 600 * util::kSecond &&
         ev.step()) {
  }
  EXPECT_TRUE(migrated);
  EXPECT_EQ(w->source->migrations(), 1u);
  ASSERT_TRUE(ledger.completed(id));
  EXPECT_TRUE(ledger.content_ok(id));
  EXPECT_EQ(ledger.digest(id), core::stream_digest(60, 2 * util::kMiB));
}

TEST(Resume, NonResumableSourceRefusesMigrate) {
  auto w = make_world(/*real=*/true, util::kMiB, 30 * util::kSecond, 23);
  core::SourceConfig scfg;
  scfg.payload_bytes = util::kMiB;
  scfg.payload_seed = 60;
  scfg.use_header = true;
  util::Rng rng(23);
  scfg.header.session = core::SessionId::generate(rng);
  scfg.header.payload_length = scfg.payload_bytes;
  scfg.header.hops = {{w->depot->id(), kDepot}};
  scfg.header.destination = {w->dst->id(), kSink};
  w->source = std::make_unique<core::SourceApp>(
      *w->src_stack, sim::Endpoint{w->depot->id(), kDepot}, scfg, nullptr);
  w->source->start();
  bool migrated = true;
  w->net->sim().events().schedule_in(util::millis(200), [&] {
    migrated = w->source->migrate({w->depot->id(), kDepot},
                                  {{w->depot->id(), kDepot}}, 0);
  });
  run_until_complete(*w);
  EXPECT_FALSE(migrated);
  EXPECT_EQ(w->source->migrations(), 0u);
  ASSERT_TRUE(w->sink_complete);
  EXPECT_TRUE(w->verified);
}

}  // namespace
}  // namespace lsl::test
