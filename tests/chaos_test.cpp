// Chaos tier: scripted faults against live cascaded transfers, recovered
// by the fault policies. These run real payload bytes end to end and are
// slower than the unit tier, so they carry the `chaos` ctest label
// (scripts/check.sh runs them as their own matrix column).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/chaos.hpp"
#include "fault/spec.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

fault::FaultPlan plan_of(const std::string& spec) {
  std::string err;
  const auto plan = fault::parse_fault_spec(spec, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  return plan.value_or(fault::FaultPlan{});
}

exp::ChaosParams base_params(std::size_t depots, std::uint64_t bytes) {
  exp::ChaosParams p;
  p.chain.depots = depots;
  p.bytes = bytes;
  p.seed = 11;
  p.retry.base_delay = 100 * util::kMillisecond;
  p.retry.max_delay = util::kSecond;
  return p;
}

// The PR's acceptance scenario: a 3-depot chain, the middle depot crashes
// at the 40% byte mark, and the transfer still completes with a correct
// end-to-end MD5 after a policy-driven reroute around the dead depot.
TEST(Chaos, MidChainCrashRecoversByReroutedRetransfer) {
  const std::uint64_t bytes = 2 * util::kMiB;
  exp::ChaosParams p = base_params(3, bytes);
  p.plan = plan_of("crash:depot=depot2,at_bytes=838860");  // 40% of 2 MiB

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);  // digest trailer checked at the sink
  EXPECT_GE(r.attempts, 1u);
  EXPECT_GE(r.reroutes, 1u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.reroute_error, fault::RerouteError::kNone);
  // The rerouted session must avoid the crashed depot.
  for (const std::string& depot : r.final_route) {
    EXPECT_NE(depot, "depot2");
  }
  EXPECT_FALSE(r.final_route.empty());
  EXPECT_GT(r.mbps, 0.0);
}

// Same scenario, instrumented twice with the same seed: the exported
// metrics must be byte-identical — faults, backoff jitter and TCP timing
// are all deterministic functions of the seed.
TEST(Chaos, SameSeedExportsByteIdenticalMetrics) {
  auto run_once = [](std::string* jsonl) -> exp::ChaosResult {
    metrics::Registry reg;
    exp::ChaosParams p = base_params(3, 2 * util::kMiB);
    p.plan = plan_of("crash:depot=depot2,at_bytes=838860");
    p.metrics = &reg;
    const exp::ChaosResult r = exp::run_chaos(p);
    std::ostringstream out;
    metrics::write_jsonl(reg, out);
    *jsonl = out.str();
    EXPECT_GE(reg.counter("fault.injected").value(), 1u);
    EXPECT_GE(reg.counter("recovery.attempts").value(), 1u);
    return r;
  };
  std::string first, second;
  const exp::ChaosResult a = run_once(&first);
  const exp::ChaosResult b = run_once(&second);
  EXPECT_TRUE(a.completed && a.verified);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// A mid-stream reset with resume_grace set: the depot parks the session,
// the source reconnects with kFlagResume after a policy backoff, and the
// transfer finishes in-session (no reroute, no retransfer).
TEST(Chaos, MidStreamResetResumesInSession) {
  exp::ChaosParams p = base_params(1, util::kMiB);
  p.plan = plan_of("reset:depot=depot1,at_bytes=419430");  // 40% of 1 MiB
  p.resumable_attempts = true;
  p.chain.depot.resume_grace = 2 * util::kSecond;

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);  // seeded-content check (resume forbids digest)
  EXPECT_GE(r.resumes, 1u);
  EXPECT_GE(r.attempts, 1u);  // the reconnect drew from the retry budget
  EXPECT_EQ(r.reroutes, 0u);
  ASSERT_EQ(r.final_route.size(), 1u);
  EXPECT_EQ(r.final_route[0], "depot1");
}

// A resumable session whose chain loses a depot for good (or for longer
// than the parked state survives) cannot resume: its reconnect lands at an
// unmoved ack floor, so the policy moves it to a route around the dead
// depot instead of spending the budget on the chain.
TEST(Chaos, ResumableRunReroutesAroundADeadDepot) {
  for (const std::size_t depots : {2u, 3u, 4u}) {
    for (const char* depot : {"depot1", "depot2"}) {
      for (const char* outage : {"", ",for=300ms"}) {
        const std::string spec = std::string("crash:depot=") + depot +
                                 ",at_bytes=419430" + outage;
        SCOPED_TRACE("chain:" + std::to_string(depots) + " " + spec);
        exp::ChaosParams p = base_params(depots, 2 * util::kMiB);
        p.seed = 13;
        p.retry = fault::RetryConfig{};  // lsl_sim's budget
        p.plan = plan_of(spec);
        p.resumable_attempts = true;
        p.chain.depot.resume_grace = 2 * util::kSecond;

        const exp::ChaosResult r = exp::run_chaos(p);
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.verified);
        EXPECT_GE(r.reroutes, 1u);
        for (const std::string& d : r.final_route) EXPECT_NE(d, depot);
      }
    }
  }
}

// A depot that crashes holding a partial upstream buffer and restarts
// shortly after: with no alternative route, the retry loop must wait out
// the outage and retransfer through the restarted depot. (The dead
// attempt is detected once the event queue drains, which is after the
// scripted restart has fired — so a single retry tick suffices; the
// still-down re-check path is pinned by the permanent-crash test below.)
TEST(Chaos, RetryWaitsOutACrashRestartWindow) {
  exp::ChaosParams p = base_params(1, util::kMiB);
  p.plan = plan_of("crash:depot=depot1,at_bytes=419430,for=300ms");
  p.retry.max_attempts = 5;
  p.retry.jitter = 0.0;  // deterministic ticks vs the 300ms restart

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.attempts, 1u);
  EXPECT_EQ(r.faults_injected, 1u);  // the restart is a repair, not a fault
  ASSERT_EQ(r.final_route.size(), 1u);
  EXPECT_EQ(r.final_route[0], "depot1");
}

// The distinct clean failure: the only depot dies for good, so rerouting
// has no alternative — the run must surface kNoAlternativeRoute rather
// than a generic timeout.
TEST(Chaos, PermanentCrashWithNoAlternativeFailsCleanly) {
  exp::ChaosParams p = base_params(1, util::kMiB);
  p.plan = plan_of("crash:depot=depot1,at_bytes=419430");
  p.retry.max_attempts = 2;

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.reroute_error, fault::RerouteError::kNoAlternativeRoute);
  EXPECT_EQ(r.attempts, 2u);  // the whole budget was spent probing
}

// Payload corruption: the sink's MD5 check fails, which must trigger a
// policy-driven retransfer that then verifies.
TEST(Chaos, DigestMismatchTriggersRetransfer) {
  exp::ChaosParams p = base_params(1, util::kMiB);
  p.plan = plan_of("corrupt:at_bytes=524288");

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.attempts, 1u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.reroutes, 0u);  // nothing died: same route, clean payload
}

// A dropped SYN/accept: the depot refuses the first connection, the retry
// policy launches a second attempt that goes through.
TEST(Chaos, AcceptDropIsRetried) {
  exp::ChaosParams p = base_params(1, util::kMiB);
  p.plan = plan_of("syndrop:depot=depot1,at=0s,count=1");

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.attempts, 1u);
  EXPECT_EQ(r.faults_injected, 1u);
}

// A short link flap is TCP's problem, not the policy layer's: loss
// recovery rides it out and no retry budget is spent.
TEST(Chaos, ShortLinkFlapRidesOnTcpRecovery) {
  exp::ChaosParams p = base_params(1, util::kMiB);
  p.plan = plan_of("flap:link=src-gw_a,at=50ms,for=200ms");

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.attempts, 0u);
  EXPECT_EQ(r.faults_injected, 1u);
}

// A slow-depot stall pauses relaying without killing anything; the
// transfer stretches but completes with no recovery action.
TEST(Chaos, SlowDepotStallCompletesWithoutRecovery) {
  exp::ChaosParams p = base_params(1, util::kMiB);
  p.plan = plan_of("slow:depot=depot1,at=50ms,for=500ms");

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.attempts, 0u);
  EXPECT_EQ(r.faults_injected, 1u);
}

// No faults at all: the chaos harness must degrade to a plain verified
// chain transfer with zero recovery activity.
TEST(Chaos, EmptyPlanIsAPlainTransfer) {
  exp::ChaosParams p = base_params(2, util::kMiB);

  const exp::ChaosResult r = exp::run_chaos(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.attempts, 0u);
  EXPECT_EQ(r.reroutes, 0u);
  EXPECT_EQ(r.faults_injected, 0u);
  EXPECT_EQ(r.resumes, 0u);
}

}  // namespace
}  // namespace lsl
