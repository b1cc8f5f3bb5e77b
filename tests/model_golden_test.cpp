// Golden values that pin the simulated model across builds.
//
// Each case runs one seeded transfer down a path that cancels and
// reschedules heavily (fault injection, cross traffic, jitter plus bursty
// loss, the striped sink) and compares its throughput, retransmissions and
// executed event count with values recorded from an earlier build. A change
// to the simulator's internals (event queue, links, depot copy pipeline)
// must leave every one of them unchanged: the same events at the same
// times in the same order. A change that moves the model on purpose
// updates these numbers and says why; one that drops events the model
// never needed (a link's departures are computed at enqueue, not fired)
// moves only the event counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/striped.hpp"
#include "fault/spec.hpp"
#include "metrics/metrics.hpp"
#include "util/units.hpp"

namespace lsl::exp {
namespace {

struct Golden {
  double mbps;
  std::uint64_t retransmits;
  std::uint64_t events;
};

void expect_golden(double mbps, std::uint64_t retransmits,
                   std::uint64_t events, const Golden& want) {
  EXPECT_DOUBLE_EQ(mbps, want.mbps);
  EXPECT_EQ(retransmits, want.retransmits);
  EXPECT_EQ(events, want.events);
}

// The EXPERIMENTS.md chaos run (its first iteration): `lsl_sim chain:3 2M
// lsl --seed 11 --fault-spec crash:depot=depot2,at_bytes=838860`.
TEST(ModelGolden, ChaosChainDepotCrash) {
  std::string err;
  const auto plan =
      fault::parse_fault_spec("crash:depot=depot2,at_bytes=838860", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ChaosParams qp;
  qp.chain.depots = 3;
  qp.bytes = 2 * util::kMiB;
  qp.seed = 11;
  qp.plan = *plan;
  const ChaosResult r = run_chaos(qp);
  ASSERT_TRUE(r.completed && r.verified);
  EXPECT_EQ(r.faults_injected, 1u);
  expect_golden(r.mbps, r.retransmits, r.events,
                {11.07426463283263, 0, 56612});
}

// The depot keeps timers on these two paths; they pin how its deadlines
// interleave with the rest of the simulation. A mid-stream reset with a
// resume grace parks the session, the source resumes, and the park
// deadline is cancelled.
TEST(ModelGolden, ChaosResetParksAndResumes) {
  std::string err;
  const auto plan =
      fault::parse_fault_spec("reset:depot=depot1,at_bytes=419430", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ChaosParams qp;
  qp.chain.depots = 1;
  qp.chain.depot.resume_grace = 2 * util::kSecond;
  qp.bytes = util::kMiB;
  qp.seed = 11;
  qp.plan = *plan;
  qp.resumable_attempts = true;
  qp.retry.base_delay = 100 * util::kMillisecond;
  qp.retry.max_delay = util::kSecond;
  const ChaosResult r = run_chaos(qp);
  ASSERT_TRUE(r.completed && r.verified);
  EXPECT_GE(r.resumes, 1u);
  expect_golden(r.mbps, r.retransmits, r.events,
                {8.1859683482906203, 1, 11801});
}

// Header, dial and idle deadlines plus the stall watchdog on every depot;
// a `slow` depot stops moving bytes long enough for the watchdog to fail
// the session, and the retry policy retransfers.
TEST(ModelGolden, ChaosSlowDepotTripsStallWatchdog) {
  std::string err;
  const auto plan =
      fault::parse_fault_spec("slow:depot=depot1,at=50ms,for=500ms", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ChaosParams qp;
  qp.chain.depots = 2;
  qp.chain.depot.liveness.header_timeout = 2 * util::kSecond;
  qp.chain.depot.liveness.dial_timeout = 2 * util::kSecond;
  qp.chain.depot.liveness.idle_timeout = 2 * util::kSecond;
  qp.chain.depot.liveness.stall_window = 100 * util::kMillisecond;
  qp.chain.depot.liveness.min_bytes_per_window = 1024;
  qp.bytes = util::kMiB;
  qp.seed = 11;
  qp.plan = *plan;
  qp.retry.base_delay = 100 * util::kMillisecond;
  qp.retry.max_delay = util::kSecond;
  const ChaosResult r = run_chaos(qp);
  ASSERT_TRUE(r.completed && r.verified);
  EXPECT_GE(r.attempts, 1u);  // the watchdog failed the first session
  expect_golden(r.mbps, r.retransmits, r.events,
                {6.8676919321516792, 0, 18910});
}

// Case 3: jittered WAN plus a Gilbert–Elliott wireless last hop.
TEST(ModelGolden, Case3WirelessLsl) {
  RunConfig cfg;
  cfg.mode = Mode::kLsl;
  cfg.bytes = 4 * util::kMiB;
  cfg.seed = 3;
  const TransferResult r = run_transfer(case3_utk_wireless(), cfg);
  ASSERT_TRUE(r.completed);
  expect_golden(r.mbps, r.retransmits, r.events,
                {4.1167773329865343, 19, 63555});
}

// Case 1 with on/off UDP cross traffic on both WAN segments.
TEST(ModelGolden, Case1CrossTrafficLsl) {
  PathParams path = case1_ucsb_uiuc();
  path.cross_traffic_mbps = 4.0;
  RunConfig cfg;
  cfg.mode = Mode::kLsl;
  cfg.bytes = 2 * util::kMiB;
  cfg.seed = 5;
  const TransferResult r = run_transfer(path, cfg);
  ASSERT_TRUE(r.completed);
  expect_golden(r.mbps, r.retransmits, r.events,
                {11.641898227751328, 1, 26461});
}

// Four lanes over a four-path braid, real payload merged and verified at
// the striped sink.
TEST(ModelGolden, StripedFourLanes) {
  StripedParams sp;
  sp.paths = 4;
  sp.stripes = 4;
  sp.bytes = 4 * util::kMiB;
  sp.seed = 7;
  const StripedResult r = run_striped(sp);
  ASSERT_TRUE(r.completed && r.verified);
  expect_golden(r.mbps, r.retransmits, r.events,
                {25.339627899612374, 3, 46046});
}

// A depot crash kills one of three lanes on a four-path braid, and the
// driver re-stripes it onto the spare chain. The seeded route database
// decides which chain that is, so this pins the seeding too.
TEST(ModelGolden, StripedCrashRestripesOntoSpareChain) {
  std::string err;
  const auto plan =
      fault::parse_fault_spec("crash:depot=depot2,at_bytes=1048576", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  StripedParams sp;
  sp.paths = 4;
  sp.stripes = 3;
  sp.bytes = 8 * util::kMiB;
  sp.seed = 11;
  sp.plan = *plan;
  sp.retry.base_delay = 100 * util::kMillisecond;
  sp.retry.max_delay = util::kSecond;
  const StripedResult r = run_striped(sp);
  ASSERT_TRUE(r.completed && r.verified);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(r.lane_routes,
            (std::vector<std::string>{"depot1", "depot4", "depot3"}));
  expect_golden(r.mbps, r.retransmits, r.events,
                {31.36023638550984, 4, 87610});
}

// The first figure point of perfbench's `sim` workload (seed 1 of its
// fidelity table): Case 1, 16 MiB, direct TCP and LSL. The depot's serial
// copy queues hundreds of chunks here, so this pins the copy lane.
TEST(ModelGolden, Case1PerfbenchPointDirectAndLsl) {
  RunConfig cfg;
  cfg.bytes = 16 * util::kMiB;
  cfg.seed = 1;
  cfg.mode = Mode::kDirectTcp;
  const TransferResult direct = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(direct.completed);
  expect_golden(direct.mbps, direct.retransmits, direct.events,
                {11.102199246482387, 4, 120699});
  cfg.mode = Mode::kLsl;
  const TransferResult lsl = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(lsl.completed);
  expect_golden(lsl.mbps, lsl.retransmits, lsl.events,
                {14.964271441790991, 3, 188978});
}

// The depot-count sweep's cascade at 0, 1 and 3 depots (seed 9, 4 MiB),
// with traces and a registry attached: end-to-end figures plus each
// sublink's trace-derived retransmissions and average RTT.
struct ChainGolden {
  double mbps;
  double seconds;
  std::uint64_t retransmits;
  std::vector<std::uint64_t> retx_per_link;
  std::vector<double> rtt_ms;
};

void expect_chain_golden(std::size_t depots, const ChainGolden& want) {
  SCOPED_TRACE(depots);
  metrics::Registry reg;
  ChainParams p;
  p.depots = depots;
  RunConfig cfg;
  cfg.mode = depots == 0 ? Mode::kDirectTcp : Mode::kLsl;
  cfg.bytes = 4 * util::kMiB;
  cfg.seed = 9;
  cfg.capture_traces = true;
  cfg.metrics = &reg;
  const TransferResult r = run_transfer(
      [&p](std::uint64_t seed) { return build_chain(p, seed); }, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.mbps, want.mbps, 1e-9);
  EXPECT_NEAR(r.seconds, want.seconds, 1e-9);
  EXPECT_EQ(r.retransmits, want.retransmits);
  EXPECT_EQ(r.retx_per_link, want.retx_per_link);
  ASSERT_EQ(r.rtt_ms.size(), want.rtt_ms.size());
  for (std::size_t i = 0; i < want.rtt_ms.size(); ++i) {
    EXPECT_NEAR(r.rtt_ms[i], want.rtt_ms[i], 1e-9) << "sublink " << i + 1;
  }
}

TEST(ModelGolden, ChainZeroDepots) {
  expect_chain_golden(0, {7.0404707756200091, 4.76593584, 2, {2},
                          {58.771973340153252}});
}

TEST(ModelGolden, ChainOneDepot) {
  expect_chain_golden(1, {13.389090223567171, 2.506102464, 2, {2, 0},
                          {30.890545753674626, 30.794313803037596}});
}

TEST(ModelGolden, ChainThreeDepots) {
  expect_chain_golden(3, {27.704019136448917, 1.2111756, 1, {1, 0, 0, 0},
                          {17.895908670539001, 18.536469259016247,
                           19.496178980087382, 19.452985928466443}});
}

}  // namespace
}  // namespace lsl::exp
