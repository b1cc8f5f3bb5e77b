// Model-checker guard tests (label: mcheck).
//
// Three layers, mirroring what the checker promises:
//
//  * the explorer itself behaves (DFS exhausts small state spaces, the
//    preemption bound prunes and is monotone, replay reproduces exactly);
//  * every registered suite scenario keeps its registered outcome — pass
//    scenarios explore clean, seeded bug fixtures are caught AND their
//    seed replays to the same violation;
//  * the census is deterministic: running a scenario twice with identical
//    budgets yields byte-identical explored/pruned/hash lines, the
//    property that makes "the schedule space changed" reviewable in CI.
//
// Budgets here are the scenarios' own defaults (all finish in well under a
// second each); the binary also runs in the plain unit tier, so keep it
// fast.
#include <gtest/gtest.h>

#include <string>

#include "check/sched.hpp"
#include "check/shim.hpp"
#include "check/suite.hpp"

namespace {

using lsl::check::ModelAtomic;
using lsl::check::Options;
using lsl::check::Outcome;
using lsl::check::ScenarioInfo;

Options opts(int schedules, int preempt, int steps = 20000) {
  Options o;
  o.max_schedules = schedules;
  o.preemption_bound = preempt;
  o.max_steps = steps;
  return o;
}

// --- the explorer itself ---------------------------------------------------

TEST(Explorer, SingleThreadIsOneSchedule) {
  const Outcome out = lsl::check::explore(opts(100, 2), [] {
    ModelAtomic<int> x{0};
    lsl::check::spawn([&] { x.store(1); });
    lsl::check::run_threads();
    lsl::check::check_that(x.load() == 1, "store lost");
  });
  EXPECT_TRUE(out.exhausted);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_EQ(out.explored, 1u);
  EXPECT_EQ(out.pruned, 0u);
}

// Two threads, one op each: exactly two interleavings, neither needing a
// preemption (switching from a finished thread is free).
TEST(Explorer, TwoIndependentOpsExploreBothOrders) {
  const Outcome out = lsl::check::explore(opts(100, 0), [] {
    ModelAtomic<int> x{0};
    lsl::check::spawn([&] { x.fetch_add(1); });
    lsl::check::spawn([&] { x.fetch_add(1); });
    lsl::check::run_threads();
    lsl::check::check_that(x.load() == 2, "increment lost");
  });
  EXPECT_TRUE(out.exhausted);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_EQ(out.explored, 2u);
}

// The classic lost update needs a preemption mid read-modify-write: bound 0
// must miss it (and count pruned branches), bound 1 must find it.
void lost_update_body() {
  ModelAtomic<int> x{0};
  for (int i = 0; i < 2; ++i) {
    lsl::check::spawn([&x] {
      const int v = x.load();
      x.store(v + 1);
    });
  }
  lsl::check::run_threads();
  lsl::check::check_that(x.load() == 2, "unsynchronized increment lost");
}

TEST(Explorer, PreemptionBoundGatesTheLostUpdate) {
  const Outcome bound0 = lsl::check::explore(opts(1000, 0), lost_update_body);
  EXPECT_TRUE(bound0.exhausted);
  EXPECT_FALSE(bound0.violation.has_value());
  EXPECT_GT(bound0.pruned, 0u) << "bound-0 run must count cut branches";

  const Outcome bound1 = lsl::check::explore(opts(1000, 1), lost_update_body);
  ASSERT_TRUE(bound1.violation.has_value());
  EXPECT_EQ(bound1.violation->message, "unsynchronized increment lost");
  EXPECT_FALSE(bound1.violation->seed.empty());

  // Replaying the seed reproduces the violation in exactly one execution.
  Options replay = opts(1000, 1);
  replay.replay_seed = bound1.violation->seed;
  const Outcome again = lsl::check::explore(replay, lost_update_body);
  ASSERT_TRUE(again.violation.has_value());
  EXPECT_EQ(again.violation->message, bound1.violation->message);
  EXPECT_EQ(again.explored, 1u);
}

TEST(Explorer, MaxSchedulesBudgetStopsExploration) {
  const Outcome out = lsl::check::explore(opts(3, 2), [] {
    ModelAtomic<int> x{0};
    for (int i = 0; i < 3; ++i) {
      lsl::check::spawn([&] { x.fetch_add(1); });
    }
    lsl::check::run_threads();
  });
  EXPECT_FALSE(out.exhausted);
  EXPECT_EQ(out.explored, 3u);
}

TEST(Explorer, DeadlockIsReportedWithASeed) {
  const Outcome out =
      lsl::check::run_scenario("lock_order_bug", Options{});
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_NE(out.violation->message.find("deadlock"), std::string::npos);
  EXPECT_FALSE(out.violation->seed.empty());
}

// --- the registered suite keeps its registered outcomes --------------------

TEST(Suite, CoversAllFourSubsystems) {
  bool buf = false, span = false, engine = false, metrics = false;
  for (const ScenarioInfo& s : lsl::check::scenarios()) {
    if (s.subsystem == "buf") buf = true;
    if (s.subsystem == "span") span = true;
    if (s.subsystem == "engine") engine = true;
    if (s.subsystem == "metrics") metrics = true;
  }
  EXPECT_TRUE(buf && span && engine && metrics);
  EXPECT_GE(lsl::check::scenarios().size(), 8u);
}

TEST(Suite, EveryScenarioBehavesAsRegistered) {
  for (const ScenarioInfo& s : lsl::check::scenarios()) {
    SCOPED_TRACE(s.name);
    const Outcome out = lsl::check::run_scenario(s.name, Options{});
    if (s.expect_violation) {
      ASSERT_TRUE(out.violation.has_value())
          << "seeded bug fixture explored clean";
      // The acceptance bar: the reported seed replays to the same failure.
      Options replay;
      replay.replay_seed = out.violation->seed;
      const Outcome again = lsl::check::run_scenario(s.name, replay);
      ASSERT_TRUE(again.violation.has_value()) << "seed did not reproduce";
      EXPECT_EQ(again.violation->message, out.violation->message);
    } else {
      ASSERT_FALSE(out.violation.has_value())
          << out.violation->message << "  (replay seed: "
          << out.violation->seed << ")";
      EXPECT_TRUE(out.exhausted)
          << "pass scenario no longer fits its registered budget";
    }
  }
}

// The dropped-release fixture is the canary the checker exists for: a
// serial schedule passes, so only systematic interleaving finds the leak.
TEST(Suite, BudgetLeakNeedsAPreemption) {
  Options serial;
  serial.preemption_bound = 0;
  const Outcome clean =
      lsl::check::run_scenario("budget_leak_bug", serial);
  EXPECT_FALSE(clean.violation.has_value())
      << "the leak should hide from preemption-free schedules";

  const Outcome found =
      lsl::check::run_scenario("budget_leak_bug", Options{});
  ASSERT_TRUE(found.violation.has_value());
  EXPECT_NE(found.violation->message.find("leaked"), std::string::npos);
}

// --- census determinism (the reproducibility guard) ------------------------

TEST(Census, ByteIdenticalAcrossRuns) {
  for (const char* name :
       {"pool_refcount", "recorder_claim", "engine_drain_gate",
        "metrics_register", "cv_handoff"}) {
    SCOPED_TRACE(name);
    const Outcome a = lsl::check::run_scenario(name, Options{});
    const Outcome b = lsl::check::run_scenario(name, Options{});
    EXPECT_EQ(a.census(), b.census());
    EXPECT_EQ(a.schedule_hash, b.schedule_hash);
    EXPECT_NE(a.schedule_hash, 0u);
  }
}

TEST(Census, HashDistinguishesBudgets) {
  const Outcome wide =
      lsl::check::run_scenario("engine_drain_gate", Options{});
  Options narrow;
  narrow.preemption_bound = 0;
  const Outcome serial =
      lsl::check::run_scenario("engine_drain_gate", narrow);
  EXPECT_NE(wide.census(), serial.census())
      << "different schedule spaces must not collide on the census line";
}

}  // namespace
