#include "fault/policy.hpp"

#include <algorithm>
#include <cmath>

namespace lsl::fault {

const char* to_string(RerouteError e) {
  switch (e) {
    case RerouteError::kNone:
      return "none";
    case RerouteError::kNoCandidates:
      return "no-candidates";
    case RerouteError::kNoAlternativeRoute:
      return "no-alternative-route";
  }
  return "?";  // unreachable: all enumerators handled above
}

RoutePolicy::RoutePolicy(RetryConfig budget, std::uint64_t seed,
                         std::vector<core::CandidateRoute> candidates,
                         const core::RouteSelector* selector)
    : budget_(budget),
      rng_(seed),
      candidates_(std::move(candidates)),
      selector_(selector != nullptr ? *selector : own_selector_) {}

Verdict RoutePolicy::lost(std::optional<std::uint64_t> floor) {
  const bool reconnect = floor.has_value() && floor != reconnected_at_;
  if (attempts_ >= budget_.max_attempts ||
      (!reconnect && candidates_.empty())) {
    return {Verdict::Kind::kGiveUp, 0,
            candidates_.empty() ? RerouteError::kNoCandidates : error_, {}};
  }
  double ns = static_cast<double>(budget_.base_delay) *
              std::pow(budget_.multiplier, static_cast<double>(attempts_++));
  ns = std::min(ns, static_cast<double>(budget_.max_delay));
  if (budget_.jitter > 0.0) {
    // One RNG draw per tick: the stream position is a pure function of
    // the attempt count for a given seed.
    ns *= rng_.uniform(1.0 - budget_.jitter, 1.0 + budget_.jitter);
  }
  const auto delay =
      std::max<util::SimDuration>(static_cast<util::SimDuration>(ns), 1);
  if (reconnect) {
    reconnected_at_ = floor;
    return {Verdict::Kind::kReconnect, delay, RerouteError::kNone, {}};
  }
  reconnected_at_.reset();  // the new chain's floors are untried
  return {Verdict::Kind::kMove, delay, RerouteError::kNone, {}};
}

Verdict RoutePolicy::moved(const std::set<std::string>& dead,
                           const std::set<std::string>& in_use,
                           std::uint64_t bytes) {
  const std::optional<std::size_t> r = choose(dead, in_use, bytes);
  error_ = r ? RerouteError::kNone : RerouteError::kNoAlternativeRoute;
  return r ? Verdict{Verdict::Kind::kMove, 0, error_, r} : lost();
}

Verdict RoutePolicy::evacuate(const std::set<std::string>& dead,
                              const std::string& depot,
                              std::uint64_t bytes) const {
  const std::optional<std::size_t> r = choose(dead, {depot}, bytes);
  if (r) return {Verdict::Kind::kMove, 0, RerouteError::kNone, r};
  return {Verdict::Kind::kGiveUp, 0, RerouteError::kNoAlternativeRoute, {}};
}

std::optional<std::size_t> RoutePolicy::choose(
    const std::set<std::string>& dead, const std::set<std::string>& in_use,
    std::uint64_t bytes) const {
  std::vector<core::CandidateRoute> open;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const std::vector<std::string>& w = candidates_[i].waypoints;
    if (std::none_of(w.begin() + 1, w.end() - 1, [&](const std::string& d) {
          return dead.count(d) + in_use.count(d) != 0;
        })) {
      open.push_back(candidates_[i]);
      index.push_back(i);
    }
  }
  if (open.empty()) return std::nullopt;
  const core::CandidateRoute& best = selector_.choose(open, bytes);
  return index[static_cast<std::size_t>(&best - open.data())];
}

}  // namespace lsl::fault
