// Tests of the experiment layer: scenario construction, the transfer
// runner in all three modes, the chain builder, and the reproduction's
// headline invariants (LSL beats direct on the paper's paths; sublink RTTs
// are shorter than end-to-end; the sum exceeds end-to-end slightly).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "lsl/selector.hpp"
#include "metrics/metrics.hpp"
#include "util/units.hpp"

namespace lsl::exp {
namespace {

TEST(Scenarios, Case1TopologyWellFormed) {
  Scenario sc = build_scenario(case1_ucsb_uiuc(), 1);
  ASSERT_NE(sc.src, nullptr);
  ASSERT_NE(sc.dst, nullptr);
  ASSERT_EQ(sc.depots.size(), 1u);
  EXPECT_FALSE(sc.src->is_router());
  EXPECT_FALSE(sc.depots[0]->is_router());
  EXPECT_GE(sc.net->node_count(), 6u);
  EXPECT_EQ(sc.cross_sources.size(), 2u);
}

TEST(Scenarios, AllCasesBuild) {
  for (const PathParams& p :
       {case1_ucsb_uiuc(), case2_ucsb_uf(), case3_utk_wireless(),
        case_osu_steady()}) {
    Scenario sc = build_scenario(p, 7);
    EXPECT_NE(sc.net->find_node("src"), nullptr) << p.name;
    EXPECT_NE(sc.net->find_node("depot"), nullptr) << p.name;
  }
}

/// Link names, in order, of the route from node `a` to node `b`.
std::vector<std::string> route_names(Scenario& sc, const std::string& a,
                                     const std::string& b) {
  std::vector<std::string> names;
  for (const sim::Link* l : sc.net->route(sc.net->find_node(a)->id(),
                                          sc.net->find_node(b)->id())) {
    names.push_back(l->name());
  }
  return names;
}

TEST(Scenarios, BraidReachesEachDepotThroughItsOwnJunction) {
  Scenario sc = build_braid(3, 5);
  ASSERT_EQ(sc.depots.size(), 3u);
  for (std::size_t i = 0; i < sc.depots.size(); ++i) {
    const std::string n = std::to_string(i + 1);
    const std::string depot = "depot" + n;
    const std::string j = "J" + n;
    EXPECT_EQ(sc.depots[i]->name(), depot);
    EXPECT_FALSE(sc.depots[i]->is_router());
    EXPECT_EQ(route_names(sc, "src", depot),
              (std::vector<std::string>{"src->gw_a", "gw_a->" + j,
                                        j + "->" + depot}));
    EXPECT_EQ(route_names(sc, depot, "dst"),
              (std::vector<std::string>{depot + "->" + j, j + "->gw_b",
                                        "gw_b->dst"}));
  }
}

/// The seeder's forecasts for `a` -> `b` match the closed form.
void expect_seeded(core::PathDatabase& db, const std::string& a,
                   const std::string& b, double rtt_ms, double mbps,
                   double loss) {
  SCOPED_TRACE(a + "->" + b);
  ASSERT_TRUE(db.knows(a, b));
  core::SublinkForecast& e = db.edge(a, b);
  // Integer-ns link delays: a segment of 28 ms / 3 is 1/3 ns short.
  EXPECT_NEAR(e.rtt_ms.predict(), rtt_ms, 1e-5);
  EXPECT_DOUBLE_EQ(e.bandwidth_mbps.predict(), mbps);
  EXPECT_NEAR(e.loss_rate.predict(), loss, 1e-15);
}

// Walking the built chain gives what its geometry says: node i sits at
// segment position i (src = 0, depot<i> = i, dst = N+1), and a sublink
// spanning k segments sees k shares of the backbone's delay and loss plus
// the two 0.5 ms edge links.
TEST(PathSeeding, MatchesChainGeometryAtDefaults) {
  for (std::size_t depots = 1; depots <= 3; ++depots) {
    SCOPED_TRACE(depots);
    ChainParams p;
    p.depots = depots;
    Scenario sc = build_chain(p, 1);
    std::vector<std::string> names{"src"};
    for (std::size_t i = 1; i <= depots; ++i) {
      names.push_back("depot" + std::to_string(i));
    }
    names.push_back("dst");
    std::vector<core::CandidateRoute> sublinks;
    for (std::size_t a = 0; a < names.size(); ++a) {
      for (std::size_t b = a + 1; b < names.size(); ++b) {
        sublinks.push_back({{names[a], names[b]}});
      }
    }
    core::PathDatabase db;
    seed_path_database(db, *sc.net, sublinks);

    const double seg_delay_s = util::to_seconds(p.total_one_way_delay) /
                               static_cast<double>(depots + 1);
    const double seg_loss = p.total_loss / static_cast<double>(depots + 1);
    const double access_s = util::to_seconds(p.access_delay);
    for (std::size_t a = 0; a < names.size(); ++a) {
      for (std::size_t b = a + 1; b < names.size(); ++b) {
        const auto spans = static_cast<double>(b - a);
        const double one_way_s = spans * seg_delay_s + 2.0 * access_s;
        expect_seeded(db, names[a], names[b], 2.0 * one_way_s * 1e3,
                      p.wan_rate.as_mbps(), std::max(spans * seg_loss, 1e-7));
      }
    }
  }
}

// Each braid sublink crosses a 0.5 ms access link, one 14 ms segment of its
// path (40 Mbit/s, 28 ms and 2.8e-4 loss one way over two segments) and
// the depot's 0.5 ms link.
TEST(PathSeeding, MatchesBraidGeometry) {
  Scenario sc = build_braid(4, 1);
  std::vector<core::CandidateRoute> candidates;
  for (const sim::Node* d : sc.depots) {
    candidates.push_back({{"src", d->name(), "dst"}});
  }
  core::PathDatabase db;
  seed_path_database(db, *sc.net, candidates);

  const double one_way_s = util::to_seconds(util::millis(0.5)) +
                           util::to_seconds(util::millis(28)) / 2.0 + 0.5e-3;
  const double loss = std::max(2.8e-4 / 2.0, 1e-7);
  for (const sim::Node* d : sc.depots) {
    expect_seeded(db, "src", d->name(), 2.0 * one_way_s * 1e3, 40.0, loss);
    expect_seeded(db, d->name(), "dst", 2.0 * one_way_s * 1e3, 40.0, loss);
  }
}

TEST(Runner, DirectTransferCompletes) {
  RunConfig cfg;
  cfg.mode = Mode::kDirectTcp;
  cfg.bytes = util::kMiB;
  cfg.seed = 5;
  const TransferResult r = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.mbps, 1.0);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Runner, LslTransferCompletesWithTraces) {
  RunConfig cfg;
  cfg.mode = Mode::kLsl;
  cfg.bytes = util::kMiB;
  cfg.seed = 5;
  cfg.capture_traces = true;
  const TransferResult r = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.traces.size(), 2u);  // sublink 1 + sublink 2
  ASSERT_EQ(r.rtt_ms.size(), 2u);
  EXPECT_GT(r.rtt_ms[0], 20.0);
  EXPECT_GT(r.rtt_ms[1], 20.0);
}

TEST(Runner, RealPayloadLslVerifiesEndToEnd) {
  RunConfig cfg;
  cfg.mode = Mode::kLsl;
  cfg.bytes = 512 * util::kKiB;
  cfg.seed = 6;
  cfg.carry_data = true;
  const TransferResult r = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

TEST(Runner, ParallelTcpCompletesAndBeatsSingleStream) {
  RunConfig cfg;
  cfg.bytes = 8 * util::kMiB;
  cfg.seed = 9;
  cfg.mode = Mode::kDirectTcp;
  const TransferResult direct = run_transfer(case1_ucsb_uiuc(), cfg);
  cfg.mode = Mode::kParallelTcp;
  cfg.parallel_streams = 4;
  const TransferResult par = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(direct.completed);
  ASSERT_TRUE(par.completed);
  EXPECT_GT(par.mbps, direct.mbps);
}

TEST(Runner, HeadlineInvariantLslBeatsDirectAtLargeSizes) {
  // The reproduction's core claim, as a regression test: on Case 1 at
  // 16 MB, LSL through the Denver depot must beat direct TCP by >= 25%.
  RunConfig cfg;
  cfg.bytes = 16 * util::kMiB;
  cfg.seed = 30;
  cfg.mode = Mode::kDirectTcp;
  const auto direct = run_many(case1_ucsb_uiuc(), cfg, 3);
  cfg.mode = Mode::kLsl;
  const auto lsl = run_many(case1_ucsb_uiuc(), cfg, 3);
  const double dm = mean_mbps(direct);
  const double lm = mean_mbps(lsl);
  ASSERT_GT(dm, 0.0);
  EXPECT_GT(lm, dm * 1.25) << "direct=" << dm << " lsl=" << lm;
}

TEST(Runner, SublinkRttsShorterThanEndToEnd) {
  RunConfig cfg;
  cfg.bytes = 8 * util::kMiB;
  cfg.seed = 44;
  cfg.capture_traces = true;
  cfg.mode = Mode::kDirectTcp;
  const TransferResult direct = run_transfer(case1_ucsb_uiuc(), cfg);
  cfg.mode = Mode::kLsl;
  const TransferResult lsl = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(direct.completed);
  ASSERT_TRUE(lsl.completed);
  ASSERT_EQ(lsl.rtt_ms.size(), 2u);
  const double e2e = direct.rtt_ms[0];
  // Each sublink's control loop is much shorter than the direct loop...
  EXPECT_LT(lsl.rtt_ms[0], e2e * 0.85);
  EXPECT_LT(lsl.rtt_ms[1], e2e * 0.85);
  // ...but their sum exceeds it (the depot detour), paper Figures 3/4.
  EXPECT_GT(lsl.rtt_ms[0] + lsl.rtt_ms[1], e2e);
}

TEST(Runner, SeedsChangeOutcomes) {
  RunConfig cfg;
  cfg.mode = Mode::kDirectTcp;
  cfg.bytes = 4 * util::kMiB;
  cfg.seed = 100;
  const TransferResult a = run_transfer(case1_ucsb_uiuc(), cfg);
  cfg.seed = 101;
  const TransferResult b = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_NE(a.seconds, b.seconds);
}

TEST(Runner, SameSeedIsDeterministic) {
  RunConfig cfg;
  cfg.mode = Mode::kLsl;
  cfg.bytes = 2 * util::kMiB;
  cfg.seed = 77;
  const TransferResult a = run_transfer(case1_ucsb_uiuc(), cfg);
  const TransferResult b = run_transfer(case1_ucsb_uiuc(), cfg);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.retransmits, b.retransmits);
}

ScenarioBuilder chain_of(std::size_t depots) {
  return [depots](std::uint64_t seed) {
    ChainParams p;
    p.depots = depots;
    return build_chain(p, seed);
  };
}

TEST(Chain, ZeroDepotsIsDirect) {
  RunConfig cfg;
  cfg.bytes = 2 * util::kMiB;
  const TransferResult r = run_transfer(chain_of(0), cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.mbps, 1.0);
}

TEST(Chain, CascadingImprovesLossLimitedPath) {
  RunConfig cfg;
  cfg.bytes = 8 * util::kMiB;
  cfg.seed = 12;
  const TransferResult d = run_transfer(chain_of(0), cfg);
  cfg.mode = Mode::kLsl;
  const TransferResult t = run_transfer(chain_of(2), cfg);
  ASSERT_TRUE(d.completed);
  ASSERT_TRUE(t.completed);
  EXPECT_GT(t.mbps, d.mbps * 1.3);
}

// A lossy chain times out on some sublinks; the result counts the RTOs of
// every sending socket, as the live per-socket counters do.
TEST(Chain, CountsTimeoutsOfEverySublink) {
  ChainParams lossy;
  lossy.depots = 2;
  lossy.total_loss = 3e-2;
  metrics::Registry reg;
  RunConfig cfg;
  cfg.mode = Mode::kLsl;
  cfg.bytes = 4 * util::kMiB;
  cfg.seed = 40;
  cfg.metrics = &reg;
  const TransferResult r = run_transfer(
      [&lossy](std::uint64_t seed) { return build_chain(lossy, seed); }, cfg);
  ASSERT_TRUE(r.completed);
  std::uint64_t live = 0;
  for (const char* label : {"sublink1", "sublink2", "sublink3"}) {
    const auto* c = reg.find_counter(std::string("tcp.") + label + ".timeouts");
    ASSERT_NE(c, nullptr) << label;
    live += c->value();
  }
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_EQ(r.timeouts, live);
}

TEST(Runner, MeanMbpsIgnoresIncompleteRuns) {
  std::vector<TransferResult> rs(3);
  rs[0].completed = true;
  rs[0].mbps = 10;
  rs[1].completed = false;
  rs[1].mbps = 1000;
  rs[2].completed = true;
  rs[2].mbps = 20;
  EXPECT_DOUBLE_EQ(mean_mbps(rs), 15.0);
}

}  // namespace
}  // namespace lsl::exp
