// Unit tests for the fault subsystem's deterministic pieces: the fault-spec
// grammar, the recovery policy's budget, verdicts and route exclusion, and
// the SessionDirectory peek/consume split. The end-to-end
// chaos scenarios (scripted crashes against live transfers) live in
// tests/chaos_test.cpp under the `chaos` ctest label.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault/policy.hpp"
#include "fault/spec.hpp"
#include "lsl/directory.hpp"
#include "lsl/selector.hpp"
#include "lsl/wire.hpp"

namespace lsl {
namespace {

// --- Spec grammar ------------------------------------------------------------

TEST(FaultSpec, ParsesTheReadmeExample) {
  std::string err;
  const auto plan = fault::parse_fault_spec(
      "crash:depot=d1,at=2s;flap:link=d1-d2,at=1s,for=300ms", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->events.size(), 2u);

  const fault::FaultEvent& crash = plan->events[0];
  EXPECT_EQ(crash.kind, fault::FaultKind::kCrash);
  EXPECT_EQ(crash.target, "d1");
  EXPECT_EQ(crash.at, 2 * util::kSecond);
  EXPECT_FALSE(crash.byte_keyed());

  const fault::FaultEvent& flap = plan->events[1];
  EXPECT_EQ(flap.kind, fault::FaultKind::kFlap);
  EXPECT_EQ(flap.target, "d1-d2");
  EXPECT_EQ(flap.at, 1 * util::kSecond);
  EXPECT_EQ(flap.duration, 300 * util::kMillisecond);
}

TEST(FaultSpec, RoundTripsThroughToSpec) {
  const std::string spec =
      "crash:depot=depot2,at_bytes=838860,for=500ms;"
      "syndrop:depot=depot1,at=1s,count=3;"
      "reset:depot=depot1,at=250ms;"
      "corrupt:at_bytes=4096;"
      "slow:depot=depot1,at_bytes=1048576,for=30s;"
      "disconnect:at=2s";
  std::string err;
  const auto plan = fault::parse_fault_spec(spec, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->to_spec(), spec);
  // Parsing the rendering again yields the same rendering (fixed point).
  const auto again = fault::parse_fault_spec(plan->to_spec(), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->to_spec(), spec);
}

TEST(FaultSpec, WhitespaceAndEmptyEventsAreTolerated) {
  const auto plan =
      fault::parse_fault_spec(" crash: depot = d1 , at = 10ms ; ");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events.size(), 1u);
  EXPECT_EQ(plan->events[0].target, "d1");
  EXPECT_EQ(plan->events[0].at, 10 * util::kMillisecond);
}

TEST(FaultSpec, EmptySpecIsAnEmptyPlan) {
  const auto plan = fault::parse_fault_spec("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "explode:depot=d1,at=1s",          // unknown kind
      "crash:depot=d1",                  // no trigger
      "crash:at=1s",                     // no depot
      "crash:depot=d1,at=1s,at_bytes=5", // both triggers
      "flap:link=d1-d2,at=1s",           // flap needs for=
      "slow:depot=d1,at=1s",             // slow needs for=
      "corrupt:at=1s",                   // corrupt must be byte-keyed
      "blackhole:link=d1d2,at=1s",       // link must be a-b
      "flap:depot=d1,at=1s,for=1ms",     // depot= does not apply to flap
      "crash:link=a-b,at=1s",            // link= does not apply to crash
      "restart:depot=d1,at_bytes=7",     // restart cannot be byte-keyed
      "crash:depot=d1,at=1parsec",       // bad duration
      "crash:depot=d1,at=1",             // missing unit
      "syndrop:depot=d1,at=1s,count=0",  // zero count
      "crash",                           // no colon
      "crash:depot",                     // not key=value
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(fault::parse_fault_spec(spec, &err).has_value())
        << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(FaultSpec, ParseDurationUnits) {
  EXPECT_EQ(fault::parse_duration("2s"), 2 * util::kSecond);
  EXPECT_EQ(fault::parse_duration("300ms"), 300 * util::kMillisecond);
  EXPECT_EQ(fault::parse_duration("150us"), 150 * util::kMicrosecond);
  EXPECT_EQ(fault::parse_duration("40ns"), util::SimDuration{40});
  EXPECT_EQ(fault::parse_duration("1.5s"), util::seconds(1.5));
  EXPECT_FALSE(fault::parse_duration("").has_value());
  EXPECT_FALSE(fault::parse_duration("12").has_value());
  EXPECT_FALSE(fault::parse_duration("-1s").has_value());
  EXPECT_FALSE(fault::parse_duration("1h").has_value());
}

// --- RoutePolicy: the budget --------------------------------------------------

/// A policy over one route: every floor-less loss is a move to it.
fault::RoutePolicy one_route(const fault::RetryConfig& cfg,
                             std::uint64_t seed) {
  return fault::RoutePolicy(cfg, seed, {core::CandidateRoute{{"src", "dst"}}});
}

TEST(RoutePolicy, SameSeedSameDelaySequence) {
  fault::RetryConfig cfg;
  cfg.max_attempts = 6;
  fault::RoutePolicy a = one_route(cfg, 42);
  fault::RoutePolicy b = one_route(cfg, 42);
  for (std::uint32_t i = 0; i < cfg.max_attempts; ++i) {
    const fault::Verdict va = a.lost();
    const fault::Verdict vb = b.lost();
    ASSERT_EQ(va.kind, fault::Verdict::Kind::kMove);
    ASSERT_EQ(vb.kind, fault::Verdict::Kind::kMove);
    EXPECT_EQ(va.delay, vb.delay) << "attempt " << i;
  }
  EXPECT_EQ(a.lost().kind, fault::Verdict::Kind::kGiveUp);
  EXPECT_EQ(b.lost().kind, fault::Verdict::Kind::kGiveUp);
}

TEST(RoutePolicy, DifferentSeedsJitterDifferently) {
  fault::RetryConfig cfg;
  fault::RoutePolicy a = one_route(cfg, 1);
  fault::RoutePolicy b = one_route(cfg, 2);
  bool any_difference = false;
  for (std::uint32_t i = 0; i < cfg.max_attempts; ++i) {
    if (a.lost().delay != b.lost().delay) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(RoutePolicy, DelaysGrowExponentiallyAndCapWithoutJitter) {
  fault::RetryConfig cfg;
  cfg.max_attempts = 8;
  cfg.base_delay = 10 * util::kMillisecond;
  cfg.multiplier = 2.0;
  cfg.max_delay = 100 * util::kMillisecond;
  cfg.jitter = 0.0;
  fault::RoutePolicy p = one_route(cfg, 7);
  EXPECT_EQ(p.lost().delay, 10 * util::kMillisecond);
  EXPECT_EQ(p.lost().delay, 20 * util::kMillisecond);
  EXPECT_EQ(p.lost().delay, 40 * util::kMillisecond);
  EXPECT_EQ(p.lost().delay, 80 * util::kMillisecond);
  EXPECT_EQ(p.lost().delay, 100 * util::kMillisecond);  // capped
  EXPECT_EQ(p.lost().delay, 100 * util::kMillisecond);
  EXPECT_EQ(p.attempts(), 6u);
}

TEST(RoutePolicy, JitteredDelaysStayInsideTheJitterBand) {
  fault::RetryConfig cfg;
  cfg.max_attempts = 32;
  cfg.base_delay = 100 * util::kMillisecond;
  cfg.multiplier = 1.0;  // flat: the band is easy to state
  cfg.max_delay = util::kSecond;
  cfg.jitter = 0.25;
  fault::RoutePolicy p = one_route(cfg, 99);
  for (std::uint32_t i = 0; i < cfg.max_attempts; ++i) {
    const fault::Verdict v = p.lost();
    ASSERT_EQ(v.kind, fault::Verdict::Kind::kMove);
    EXPECT_GE(v.delay, static_cast<util::SimDuration>(75 * util::kMillisecond));
    EXPECT_LE(v.delay, static_cast<util::SimDuration>(125 * util::kMillisecond));
  }
}

// --- RoutePolicy: the verdicts ------------------------------------------------

// A second loss with the ack floor unmoved means the chain lost its parked
// state: the policy moves instead of spending the budget on reconnects.
TEST(RoutePolicy, OneReconnectPerAckFloor) {
  fault::RoutePolicy p = one_route(fault::RetryConfig{.max_attempts = 10}, 3);
  using Kind = fault::Verdict::Kind;
  EXPECT_EQ(p.lost(100).kind, Kind::kReconnect);
  EXPECT_EQ(p.lost(250).kind, Kind::kReconnect);  // the floor moved
  EXPECT_EQ(p.lost(250).kind, Kind::kMove);       // it did not
  // The move starts a fresh chain, whose first loss reconnects again.
  EXPECT_EQ(p.lost(250).kind, Kind::kReconnect);
  EXPECT_EQ(p.lost(std::nullopt).kind, Kind::kMove);  // cannot resume
  EXPECT_EQ(p.attempts(), 5u);
}

TEST(RoutePolicy, WithNoCandidatesAMoveGivesUpAtOnce) {
  fault::RoutePolicy p(fault::RetryConfig{}, 3, {});
  using Kind = fault::Verdict::Kind;
  EXPECT_EQ(p.lost(100).kind, Kind::kReconnect);
  const fault::Verdict v = p.lost(100);
  EXPECT_EQ(v.kind, Kind::kGiveUp);
  EXPECT_EQ(v.error, fault::RerouteError::kNoCandidates);
  EXPECT_EQ(p.attempts(), 1u);  // no tick was spent on the give-up
}

TEST(RoutePolicy, SparesInListOrderSkippingDeadAndInUseDepots) {
  // No selector: every route predicts +infinity, so the list order ranks.
  fault::RoutePolicy p(fault::RetryConfig{}, 3,
                       {core::CandidateRoute{{"src", "x", "dst"}},
                        core::CandidateRoute{{"src", "y", "dst"}},
                        core::CandidateRoute{{"src", "z", "dst"}}});
  EXPECT_EQ(p.moved({}, {}, util::kMiB).route, 0u);
  EXPECT_EQ(p.moved({"x"}, {}, util::kMiB).route, 1u);
  EXPECT_EQ(p.moved({}, {"x", "y"}, util::kMiB).route, 2u);
  EXPECT_EQ(p.moved({"x"}, {"y"}, util::kMiB).route, 2u);
  EXPECT_EQ(p.attempts(), 0u);  // a found route spends no tick
  // None left: one more loss, so another tick.
  const fault::Verdict v = p.moved({"x"}, {"y", "z"}, util::kMiB);
  EXPECT_EQ(v.kind, fault::Verdict::Kind::kMove);
  EXPECT_FALSE(v.route.has_value());
  EXPECT_GT(v.delay, 0);
  EXPECT_EQ(p.attempts(), 1u);
}

class RoutePolicyTest : public ::testing::Test {
 protected:
  RoutePolicyTest() : selector_(db_) {
    // A diamond: src can reach dst via depot a, via depot b, or via both.
    const char* nodes[] = {"src", "a", "b", "dst"};
    for (const char* from : nodes) {
      for (const char* to : nodes) {
        if (from == to) continue;
        db_.observe_rtt_ms(from, to, 30.0);
        db_.observe_bandwidth_mbps(from, to, 50.0);
        db_.observe_loss_rate(from, to, 1e-4);
      }
    }
  }

  fault::RoutePolicy policy(fault::RetryConfig cfg = {}) {
    return fault::RoutePolicy(cfg, 5,
                              {core::CandidateRoute{{"src", "a", "dst"}},
                               core::CandidateRoute{{"src", "b", "dst"}},
                               core::CandidateRoute{{"src", "a", "b", "dst"}}},
                              &selector_);
  }

  core::PathDatabase db_;
  core::RouteSelector selector_;
};

TEST_F(RoutePolicyTest, AvoidsDeadDepots) {
  fault::RoutePolicy p = policy();
  EXPECT_EQ(p.moved({"a"}, {}, 8 * util::kMiB).route, 1u);  // src-b-dst
}

TEST_F(RoutePolicyTest, EndpointsAreNotDepots) {
  // "Dead" endpoints must not eliminate routes: only interior waypoints
  // are depots.
  fault::RoutePolicy p = policy();
  EXPECT_TRUE(p.moved({"src", "dst"}, {"src"}, 8 * util::kMiB).route);
}

TEST_F(RoutePolicyTest, DistinctErrorWhenEveryRouteIsDead) {
  fault::RoutePolicy p = policy(fault::RetryConfig{.max_attempts = 1});
  ASSERT_EQ(p.lost().kind, fault::Verdict::Kind::kMove);
  const fault::Verdict v = p.moved({"a"}, {"b"}, 8 * util::kMiB);
  EXPECT_EQ(v.kind, fault::Verdict::Kind::kGiveUp);
  EXPECT_EQ(v.error, fault::RerouteError::kNoAlternativeRoute);
  EXPECT_STREQ(to_string(v.error), "no-alternative-route");
}

TEST_F(RoutePolicyTest, GiveUpAfterAFoundRouteCarriesNoError) {
  fault::RoutePolicy p = policy(fault::RetryConfig{.max_attempts = 2});
  ASSERT_EQ(p.lost().kind, fault::Verdict::Kind::kMove);
  ASSERT_FALSE(p.moved({"a", "b"}, {}, 8 * util::kMiB).route);
  ASSERT_TRUE(p.moved({"a"}, {}, 8 * util::kMiB).route);
  const fault::Verdict v = p.lost();
  EXPECT_EQ(v.kind, fault::Verdict::Kind::kGiveUp);
  EXPECT_EQ(v.error, fault::RerouteError::kNone);
}

// The health plane's proactive move: a route off the suspect depot, or
// none — and either way no budget is spent.
TEST_F(RoutePolicyTest, EvacuationSpendsNoBudget) {
  fault::RoutePolicy p = policy();
  EXPECT_EQ(p.evacuate({}, "a", 8 * util::kMiB).route, 1u);
  const fault::Verdict v = p.evacuate({"b"}, "a", 8 * util::kMiB);
  EXPECT_EQ(v.kind, fault::Verdict::Kind::kGiveUp);
  EXPECT_EQ(v.error, fault::RerouteError::kNoAlternativeRoute);
  EXPECT_EQ(p.attempts(), 0u);
}

TEST(RoutePolicy, DistinctErrorWhenThereAreNoCandidates) {
  fault::RoutePolicy p(fault::RetryConfig{}, 5, {});
  const fault::Verdict v = p.moved({}, {}, 8 * util::kMiB);
  EXPECT_EQ(v.kind, fault::Verdict::Kind::kGiveUp);
  EXPECT_EQ(v.error, fault::RerouteError::kNoCandidates);
}

// --- SessionDirectory peek/consume ------------------------------------------

TEST(SessionDirectory, PeekDoesNotConsume) {
  core::SessionDirectory dir;
  const sim::Endpoint ep{7, 1234};
  core::SessionHeader h;
  h.payload_length = 99;
  dir.publish(ep, h);

  ASSERT_TRUE(dir.peek(ep).has_value());
  ASSERT_TRUE(dir.peek(ep).has_value());  // still there: peek is read-only
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.peek(ep)->payload_length, 99u);

  ASSERT_TRUE(dir.consume(ep).has_value());
  EXPECT_EQ(dir.size(), 0u);
  // The regression: a second consume must come back empty, not crash or
  // yield a stale header.
  EXPECT_FALSE(dir.consume(ep).has_value());
  EXPECT_FALSE(dir.peek(ep).has_value());
}

TEST(SessionDirectory, RepublishAfterConsumeIsAFreshEntry) {
  core::SessionDirectory dir;
  const sim::Endpoint ep{3, 999};
  core::SessionHeader first;
  first.payload_length = 1;
  dir.publish(ep, first);
  ASSERT_TRUE(dir.consume(ep).has_value());

  // A reconnecting (resume) client republishes under the same endpoint;
  // the new entry must be visible and independent of the consumed one.
  core::SessionHeader second;
  second.payload_length = 2;
  second.flags |= core::kFlagResume;
  dir.publish(ep, second);
  const auto peeked = dir.peek(ep);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->payload_length, 2u);
  EXPECT_TRUE(peeked->is_resume());
  EXPECT_EQ(dir.size(), 1u);
}

}  // namespace
}  // namespace lsl
