// The recovery policy (paper §III: a session outlives its connections by
// reconnecting with RESUME or moving to another depot route), decided once
// for every caller. RoutePolicy owns the one recovery budget (seeded
// jitter: chaos runs replay bit-for-bit), the candidate routes and the
// exclusion rule, and answers each loss: reconnect after d, move after d,
// or give up with a distinct error.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lsl/selector.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::fault {

/// Backoff knobs (see docs/FAULTS.md for the full table).
struct RetryConfig {
  /// Recovery budget: how many reconnects and moves follow the first try.
  std::uint32_t max_attempts = 4;
  util::SimDuration base_delay = 50 * util::kMillisecond;
  double multiplier = 2.0;
  util::SimDuration max_delay = 5 * util::kSecond;
  /// Jitter fraction j: each delay is scaled by uniform(1-j, 1+j) drawn
  /// from the policy's own seeded RNG. 0 disables jitter.
  double jitter = 0.2;
};

/// Why a move found no route.
enum class RerouteError {
  kNone,               ///< a route was found
  kNoCandidates,       ///< the candidate list itself was empty
  kNoAlternativeRoute, ///< every candidate traverses an excluded depot
};

const char* to_string(RerouteError e);

/// The policy's answer to one loss.
struct Verdict {
  enum class Kind {
    kReconnect,  ///< resume on the same route after `delay`
    kMove,       ///< move to `route`; unset: ask moved() after `delay`
    kGiveUp,     ///< recovery is over: the session fails
  };
  Kind kind = Kind::kGiveUp;
  util::SimDuration delay = 0;
  /// kGiveUp: why the last route choice found nothing (kNone if it did).
  RerouteError error = RerouteError::kNone;
  std::optional<std::size_t> route;  ///< kMove: index into candidates()
};

/// The one recovery policy. Each granted reconnect or move spends a tick:
///   delay(k) = min(base * multiplier^k, max) * uniform(1-j, 1+j)
class RoutePolicy {
 public:
  /// `candidates` are the routes a session may move to, ranked by
  /// `selector` (default: one over an empty path database, where all tie
  /// at +infinity and the shorter, then the earlier route wins).
  RoutePolicy(RetryConfig budget, std::uint64_t seed,
              std::vector<core::CandidateRoute> candidates,
              const core::RouteSelector* selector = nullptr);

  RoutePolicy(const RoutePolicy&) = delete;  // selector_ may be our own

  /// One loss at the ack floor of a connection that can resume in place
  /// (nullopt: it cannot). One reconnect per floor: a second loss at an
  /// unmoved floor means a depot died with the parked state, so the session
  /// moves. A move with no candidates, or a spent budget, gives up.
  Verdict lost(std::optional<std::uint64_t> floor = std::nullopt);

  /// A kMove's delay passed: move now to the fastest candidate with no
  /// depot (interior waypoint) in `dead` or `in_use`. None left is one more
  /// loss (a dead depot may come back): another tick, or kGiveUp.
  Verdict moved(const std::set<std::string>& dead,
                const std::set<std::string>& in_use, std::uint64_t bytes);

  /// A proactive move off `depot` (the health plane): the route avoiding
  /// it and `dead`, or kGiveUp to stay put. Spends no budget.
  Verdict evacuate(const std::set<std::string>& dead, const std::string& depot,
                   std::uint64_t bytes) const;

  const std::vector<core::CandidateRoute>& candidates() const {
    return candidates_;
  }
  /// Ticks granted so far (reconnects plus moves).
  std::uint32_t attempts() const { return attempts_; }

 private:
  std::optional<std::size_t> choose(const std::set<std::string>& dead,
                                    const std::set<std::string>& in_use,
                                    std::uint64_t bytes) const;

  RetryConfig budget_;
  util::Rng rng_;
  std::vector<core::CandidateRoute> candidates_;
  core::PathDatabase empty_db_;
  core::RouteSelector own_selector_{empty_db_};
  const core::RouteSelector& selector_;
  std::uint32_t attempts_ = 0;
  /// The floor the last reconnect was granted at; cleared by a move.
  std::optional<std::uint64_t> reconnected_at_;
  RerouteError error_ = RerouteError::kNone;
};

}  // namespace lsl::fault
