// Health-plane tier: the depot scorecard (HealthBoard), its gossip codec,
// load-aware admission in the selector and stripe planners, the
// proactive MigrationPolicy, and the end-to-end sim scenario where a live
// transfer evacuates a stalling depot mid-stream and resumes from the
// sink's exact acknowledged floor. These carry the `health` ctest label
// (scripts/check.sh runs them as their own matrix column, plain and tsan).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "exp/chaos.hpp"
#include "fault/spec.hpp"
#include "health/board.hpp"
#include "health/gossip.hpp"
#include "health/migration.hpp"
#include "lsl/selector.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "stripe/plan.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

using health::DepotState;
using health::HealthBoard;

// --- HealthBoard state machine ----------------------------------------------

TEST(HealthBoard, UnknownDepotsAreHealthyAndAdmissible) {
  HealthBoard board;
  EXPECT_EQ(board.state("never-seen"), DepotState::kHealthy);
  EXPECT_DOUBLE_EQ(board.score("never-seen"), 1.0);
  EXPECT_TRUE(board.admissible("never-seen"));
  EXPECT_EQ(board.depots(), 0u);
}

TEST(HealthBoard, EachObservationMovesAtMostOneState) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;  // isolate the scoring from decay
  HealthBoard board(cfg);
  // One failure drops the score by 0.25 -> 0.75, above demote_degraded:
  // still healthy.
  auto eff = board.observe_failure("d", 1);
  EXPECT_EQ(eff.after, DepotState::kHealthy);
  // Second failure: 0.50 <= demote_degraded(0.60) *and* <= demote_suspect?
  // No — 0.50 > 0.35, so the target is degraded; one step.
  eff = board.observe_failure("d", 2);
  EXPECT_EQ(eff.before, DepotState::kHealthy);
  EXPECT_EQ(eff.after, DepotState::kDegraded);
  EXPECT_EQ(eff.steps(), 1);
  // Third failure: 0.25 <= demote_suspect(0.35) — target suspect, one step.
  eff = board.observe_failure("d", 3);
  EXPECT_EQ(eff.after, DepotState::kSuspect);
  EXPECT_FALSE(board.admissible("d"));
  // Fourth failure: score 0.0 and fail_streak hits dead_streak(4) — target
  // dead, but still exactly one step from suspect.
  eff = board.observe_failure("d", 4);
  EXPECT_EQ(eff.after, DepotState::kDead);
  EXPECT_EQ(eff.steps(), 1);
  EXPECT_EQ(board.transitions(), 3u);
  EXPECT_EQ(board.row("d").failures, 4u);
  EXPECT_EQ(board.row("d").fail_streak, 4u);
}

TEST(HealthBoard, PromotionRequiresClearingTheHysteresisBand) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  HealthBoard board(cfg);
  // Walk to degraded.
  board.observe_failure("d", 1);
  board.observe_failure("d", 2);
  ASSERT_EQ(board.state("d"), DepotState::kDegraded);
  // One success: 0.50 + 0.15 = 0.65 — above demote_degraded(0.60) so the
  // target is healthy, but below promote_healthy(0.75): the band holds.
  auto eff = board.observe_success("d", 3);
  EXPECT_EQ(eff.after, DepotState::kDegraded);
  // Next success clears 0.75: promotion fires (exactly one step).
  eff = board.observe_success("d", 4);
  EXPECT_EQ(eff.before, DepotState::kDegraded);
  EXPECT_EQ(eff.after, DepotState::kHealthy);
}

TEST(HealthBoard, ConsecutiveFailureStreakForcesDead) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  cfg.fail_penalty = 0.01;  // score barely moves; the streak must do it
  cfg.dead_streak = 3;
  HealthBoard board(cfg);
  board.observe_failure("d", 1);
  board.observe_failure("d", 2);
  EXPECT_EQ(board.state("d"), DepotState::kHealthy);  // score still ~0.98
  board.observe_failure("d", 3);  // streak hits 3: target dead, step 1
  EXPECT_EQ(board.state("d"), DepotState::kDegraded);
  board.observe_failure("d", 4);
  EXPECT_EQ(board.state("d"), DepotState::kSuspect);
  board.observe_failure("d", 5);
  EXPECT_EQ(board.state("d"), DepotState::kDead);
}

TEST(HealthBoard, DecayDriftsTowardNeutralAndReAdmits) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 1000;
  cfg.neutral_score = 0.70;
  HealthBoard board(cfg);
  // Kill the depot at t=0ms.
  for (std::uint64_t t = 1; t <= 4; ++t) board.observe_failure("d", t);
  ASSERT_EQ(board.state("d"), DepotState::kDead);
  ASSERT_LE(board.score("d"), 0.10);
  // Ten half-lives of silence: the score relaxes essentially to neutral
  // (0.70 > promote_suspect), and the long interval expires the streak.
  board.tick(10'004);
  EXPECT_NEAR(board.score("d"), 0.70, 0.01);
  EXPECT_EQ(board.row("d").fail_streak, 0u);
  // Each tick promotes at most one step: dead -> suspect -> degraded ->
  // healthy over three evaluations.
  EXPECT_EQ(board.state("d"), DepotState::kSuspect);
  board.tick(10'005);
  EXPECT_EQ(board.state("d"), DepotState::kDegraded);
  EXPECT_TRUE(board.admissible("d"));
  // Neutral (0.70) sits below promote_healthy (0.75) on purpose: decay
  // alone re-admits a depot but never declares it fully healthy — that
  // takes real successes.
  board.tick(10'006);
  EXPECT_EQ(board.state("d"), DepotState::kDegraded);
  board.observe_success("d", 10'007);
  EXPECT_EQ(board.state("d"), DepotState::kHealthy);
}

TEST(HealthBoard, DecayIsAPureFunctionOfTimestamps) {
  health::HealthConfig cfg;
  HealthBoard a(cfg), b(cfg);
  for (HealthBoard* board : {&a, &b}) {
    board->observe_failure("d", 100);
    board->observe_timeout("d", 350);
    board->tick(5'000);
    board->observe_success("d", 5'200);
  }
  EXPECT_DOUBLE_EQ(a.score("d"), b.score("d"));
  EXPECT_EQ(a.state("d"), b.state("d"));
  EXPECT_EQ(a.transitions(), b.transitions());
}

TEST(HealthBoard, BpsEwmaSeedsOnFirstSampleThenBlends) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  cfg.ewma_alpha = 0.5;
  HealthBoard board(cfg);
  board.observe_bps("d", 100.0, 1);
  EXPECT_DOUBLE_EQ(board.row("d").ewma_bps, 100.0);
  board.observe_bps("d", 200.0, 2);
  EXPECT_DOUBLE_EQ(board.row("d").ewma_bps, 150.0);
}

TEST(HealthBoard, CollapsedRateScoresLikeATimeout) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  cfg.collapse_bps = 1000.0;
  HealthBoard board(cfg);
  const double before = board.score("d");
  board.observe_bps("d", 10.0, 1);  // EWMA 10 <= collapse floor
  EXPECT_LT(board.score("d"), before);
}

TEST(HealthBoard, MergeBlendsJudgementNotCounters) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  HealthBoard board(cfg);
  board.observe_failure("d", 1);  // local: score 0.75, failures 1
  health::DepotHealth remote;
  remote.name = "d";
  remote.score = 0.15;
  remote.failures = 40;  // the remote's history must NOT be added
  remote.ewma_bps = 5'000.0;
  board.merge(remote, 0.5, 2);
  EXPECT_NEAR(board.score("d"), 0.45, 1e-9);  // halfway toward 0.15
  EXPECT_EQ(board.row("d").failures, 1u);
  EXPECT_DOUBLE_EQ(board.row("d").ewma_bps, 5'000.0);  // first sample seeds
  EXPECT_EQ(board.gossip_merged(), 1u);
}

TEST(HealthBoard, RowsAreSortedByNameAndMetricsCountersFire) {
  metrics::Registry reg;
  health::HealthMetrics hm(reg);
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  HealthBoard board(cfg);
  board.set_metrics(&hm);
  board.observe_failure("zeta", 1);
  board.observe_failure("alpha", 1);
  board.observe_failure("alpha", 2);  // -> degraded: a demotion
  const auto rows = board.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "alpha");
  EXPECT_EQ(rows[1].name, "zeta");
  EXPECT_EQ(reg.counter("health.transitions").value(), 1u);
  EXPECT_EQ(reg.counter("health.demotions").value(), 1u);
  EXPECT_EQ(reg.counter("health.promotions").value(), 0u);
  board.note_admission_refused();
  board.note_migration();
  EXPECT_EQ(reg.counter("health.admission_refused").value(), 1u);
  EXPECT_EQ(reg.counter("health.migrations").value(), 1u);
}

// --- Gossip codec ------------------------------------------------------------

TEST(HealthGossip, EncodeDecodeRoundTrips) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  HealthBoard board(cfg);
  board.observe_failure("d1", 1);
  board.observe_failure("d1", 2);
  board.observe_success("d2", 3);
  board.observe_timeout("d2", 4);
  const std::vector<health::DepotHealth> rows = board.rows();
  const std::string wire = health::encode_gossip(rows);
  const auto decoded = health::decode_gossip(wire);
  ASSERT_EQ(decoded.size(), rows.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const auto& orig = rows[i];
    EXPECT_EQ(decoded[i].name, orig.name);
    EXPECT_EQ(decoded[i].state, orig.state);
    EXPECT_NEAR(decoded[i].score, orig.score, 1e-6);
    EXPECT_EQ(decoded[i].failures, orig.failures);
    EXPECT_EQ(decoded[i].successes, orig.successes);
    EXPECT_EQ(decoded[i].timeouts, orig.timeouts);
  }
}

TEST(HealthGossip, MalformedAndUnknownLinesAreSkipped) {
  const std::string text =
      "# comment\n"
      "h9 future-version-row 0 0 0 0 0 0\n"
      "h1 short-row 1\n"
      "h1 ok 2 0.250000 1000.000000 3 1 2\n"
      "h1 bad-state 7 0.5 0 0 0 0\n"
      "garbage\n";
  const auto rows = health::decode_gossip(text);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "ok");
  EXPECT_EQ(rows[0].state, DepotState::kSuspect);
  EXPECT_NEAR(rows[0].score, 0.25, 1e-6);
  EXPECT_EQ(rows[0].failures, 3u);
}

TEST(HealthGossip, MergeRowsIsPessimisticAcrossShards) {
  health::DepotHealth a;
  a.name = "d";
  a.state = DepotState::kHealthy;
  a.score = 0.9;
  a.failures = 2;
  health::DepotHealth b = a;
  b.state = DepotState::kSuspect;
  b.score = 0.3;
  b.failures = 5;
  const auto merged = health::merge_rows({{a}, {b}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].state, DepotState::kSuspect);  // worst state wins
  EXPECT_DOUBLE_EQ(merged[0].score, 0.3);            // min score wins
  EXPECT_EQ(merged[0].failures, 7u);                 // counters sum
}

// --- Load-aware admission -----------------------------------------------------

class HealthAdmissionTest : public ::testing::Test {
 protected:
  HealthAdmissionTest() : selector_(db_) {
    const char* nodes[] = {"src", "a", "b", "c", "dst"};
    for (const char* from : nodes) {
      for (const char* to : nodes) {
        if (from == to) continue;
        db_.observe_rtt_ms(from, to, 30.0);
        db_.observe_bandwidth_mbps(from, to, 50.0);
        db_.observe_loss_rate(from, to, 1e-4);
      }
    }
    cfg_.decay_half_life_ms = 0;
  }

  void demote_to(HealthBoard& board, const std::string& name,
                 DepotState want) {
    std::uint64_t t = 1;
    while (board.state(name) < want) board.observe_failure(name, t++);
  }

  core::PathDatabase db_;
  core::RouteSelector selector_;
  health::HealthConfig cfg_;
};

TEST_F(HealthAdmissionTest, SuspectInteriorDepotMakesRouteInfinite) {
  HealthBoard board(cfg_);
  demote_to(board, "a", DepotState::kSuspect);
  const core::CandidateRoute via_a{{"src", "a", "dst"}};
  const double before = selector_.predict_transfer_seconds(via_a, util::kMiB);
  EXPECT_TRUE(std::isfinite(before));
  selector_.set_health(&board);
  EXPECT_TRUE(std::isinf(selector_.predict_transfer_seconds(via_a,
                                                            util::kMiB)));
  // Endpoints are not depots: a "suspect" src must not poison the route.
  demote_to(board, "src", DepotState::kSuspect);
  const core::CandidateRoute via_b{{"src", "b", "dst"}};
  EXPECT_TRUE(std::isfinite(
      selector_.predict_transfer_seconds(via_b, util::kMiB)));
}

TEST_F(HealthAdmissionTest, DegradedDepotIsPenalizedNotBanned) {
  HealthBoard board(cfg_);
  demote_to(board, "a", DepotState::kDegraded);
  const core::CandidateRoute via_a{{"src", "a", "dst"}};
  const double clean = selector_.predict_transfer_seconds(via_a, util::kMiB);
  selector_.set_health(&board, /*degraded_penalty=*/2.0);
  const double penalized =
      selector_.predict_transfer_seconds(via_a, util::kMiB);
  EXPECT_TRUE(std::isfinite(penalized));
  EXPECT_NEAR(penalized, clean * 2.0, 1e-9);
  // choose() now prefers the identical-forecast route through healthy b.
  // choose() returns a reference into its argument, so the candidate
  // vector must outlive `picked`.
  const core::CandidateRoute via_b{{"src", "b", "dst"}};
  const std::vector<core::CandidateRoute> candidates = {via_a, via_b};
  const auto& picked = selector_.choose(candidates, util::kMiB);
  EXPECT_EQ(picked.waypoints[1], "b");
}

TEST_F(HealthAdmissionTest, DisjointRoutesSkipSuspectDepots) {
  HealthBoard board(cfg_);
  demote_to(board, "b", DepotState::kSuspect);
  const std::vector<core::CandidateRoute> candidates = {
      core::CandidateRoute{{"src", "a", "dst"}},
      core::CandidateRoute{{"src", "b", "dst"}},
      core::CandidateRoute{{"src", "c", "dst"}},
  };
  // Without the board: three disjoint routes exist.
  EXPECT_EQ(stripe::disjoint_routes(selector_, candidates, 3, util::kMiB)
                .size(),
            3u);
  selector_.set_health(&board);
  const auto routes =
      stripe::disjoint_routes(selector_, candidates, 3, util::kMiB);
  ASSERT_EQ(routes.size(), 2u);
  for (const auto& r : routes) EXPECT_NE(r.waypoints[1], "b");
}

// --- MigrationPolicy ----------------------------------------------------------

TEST(MigrationPolicy, FiresOnTriggerRespectsBudgetAndCooldown) {
  health::HealthConfig cfg;
  cfg.decay_half_life_ms = 0;
  HealthBoard board(cfg);
  std::uint64_t t = 1;
  while (board.state("d2") < DepotState::kSuspect) {
    board.observe_failure("d2", t++);
  }
  health::MigrationConfig mc;
  mc.max_migrations = 2;
  mc.cooldown_ms = 500;

  // Disabled policy never fires, suspect depot or not.
  health::MigrationPolicy off(&board, mc);
  EXPECT_EQ(off.should_migrate({"d1", "d2"}, 1000), "");

  mc.enabled = true;
  health::MigrationPolicy policy(&board, mc);
  EXPECT_EQ(policy.should_migrate({"d1", "d2"}, 1000), "d2");
  policy.note_migrated(1000);
  // Cooldown: quiet for 500ms even though d2 is still suspect.
  EXPECT_EQ(policy.should_migrate({"d2"}, 1200), "");
  EXPECT_EQ(policy.should_migrate({"d2"}, 1500), "d2");
  policy.note_migrated(1500);
  // Budget: two migrations spent, the carousel stops.
  EXPECT_EQ(policy.should_migrate({"d2"}, 9000), "");
  EXPECT_EQ(policy.migrations(), 2u);
}

// --- End-to-end: proactive mid-transfer re-selection in the simulator ---------

fault::FaultPlan plan_of(const std::string& spec) {
  std::string err;
  const auto plan = fault::parse_fault_spec(spec, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  return plan.value_or(fault::FaultPlan{});
}

exp::ChaosParams migration_params(metrics::Registry* reg) {
  exp::ChaosParams p;
  p.chain.depots = 3;
  p.bytes = 2 * util::kMiB;
  p.seed = 11;
  p.metrics = reg;
  p.retry.base_delay = 100 * util::kMillisecond;
  p.retry.max_delay = util::kSecond;
  p.retry.jitter = 0.0;
  p.resumable_attempts = true;
  p.chain.depot.resume_grace = 2 * util::kSecond;
  // depot2 wedges (relay paused, connections alive) for 10s — far longer
  // than the transfer. Without migration the stall watchdogs would
  // eventually tear the session down; with it, the board sees zero relay
  // progress, demotes depot2 to suspect, and the source evacuates.
  p.plan = plan_of("slow:depot=depot2,at_bytes=838860,for=10s");
  p.health.enabled = true;
  p.health.migration.enabled = true;
  p.health.board.decay_half_life_ms = 60'000;  // slow decay vs the probe
  return p;
}

TEST(HealthChaos, MidTransferMigrationResumesFromExactAckedFloor) {
  metrics::Registry reg;
  exp::ChaosParams p = migration_params(&reg);
  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  // The health plane moved the session off depot2 before the retry budget
  // fired: zero reactive reroutes, at least one proactive migration.
  EXPECT_GE(r.migrations, 1u);
  EXPECT_GE(r.health_transitions, 1u);
  // The migration resumed from the sink's exact acknowledged frontier —
  // a real mid-stream offset, not a restart (0) and not the full payload.
  EXPECT_GT(r.migration_floor, 0u);
  EXPECT_LT(r.migration_floor, p.bytes);
  // The ledger stitched the pre- and post-migration connections into one
  // stream whose MD5 matches the seeded generator end to end.
  EXPECT_TRUE(r.stream_digest_ok);
  // The evacuated route avoids the wedged depot.
  for (const std::string& depot : r.final_route) {
    EXPECT_NE(depot, "depot2");
  }
  EXPECT_GE(reg.counter("health.migrations").value(), 1u);
  EXPECT_GE(reg.counter("health.transitions").value(), 1u);
}

TEST(HealthChaos, SameSeedHealthRunsExportByteIdenticalMetrics) {
  auto run_once = [](std::string* jsonl) -> exp::ChaosResult {
    metrics::Registry reg;
    exp::ChaosParams p = migration_params(&reg);
    const exp::ChaosResult r = exp::run_chaos(p);
    std::ostringstream out;
    metrics::write_jsonl(reg, out);
    *jsonl = out.str();
    return r;
  };
  std::string first, second;
  const exp::ChaosResult a = run_once(&first);
  const exp::ChaosResult b = run_once(&second);
  EXPECT_TRUE(a.completed && b.completed);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migration_floor, b.migration_floor);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The determinism invariant the whole plane is built under: with the plane
// OFF (the default), a seeded run exports byte-identical metrics with no
// health.* rows — indistinguishable from a build that never heard of
// src/health.
TEST(HealthChaos, DisabledPlaneLeavesSeededExportsUntouched) {
  auto run_once = [](bool health_structs_touched, std::string* jsonl) {
    metrics::Registry reg;
    exp::ChaosParams p;
    p.chain.depots = 3;
    p.bytes = 2 * util::kMiB;
    p.seed = 11;
    p.metrics = &reg;
    p.plan = fault::parse_fault_spec("crash:depot=depot2,at_bytes=838860")
                 .value();
    if (health_structs_touched) {
      // Populate every knob; `enabled` stays false, so none of it may leak
      // into the run.
      p.health.board.fail_penalty = 0.9;
      p.health.migration.max_migrations = 99;
      p.health.probe_interval = util::kMillisecond;
    }
    const exp::ChaosResult r = exp::run_chaos(p);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_EQ(r.health_transitions, 0u);
    std::ostringstream out;
    metrics::write_jsonl(reg, out);
    *jsonl = out.str();
  };
  std::string plain, knobbed;
  run_once(false, &plain);
  run_once(true, &knobbed);
  EXPECT_EQ(plain, knobbed);
  EXPECT_EQ(plain.find("health."), std::string::npos);
}

}  // namespace
}  // namespace lsl
