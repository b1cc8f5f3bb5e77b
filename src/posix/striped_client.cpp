#include "posix/striped_client.hpp"

#include <string>
#include <utility>

#include "util/contract.hpp"
#include "util/log.hpp"

namespace lsl::posix {

namespace {

core::LaneSet lane_set(const StripedPosixSourceConfig& c) {
  const std::size_t count = c.lane_routes.size();
  LSL_PRECONDITION(count >= 2 && count <= core::kMaxStripes,
                   "striped source: lane count out of range");
  return core::LaneSet(
      stripe::StripePlan::round_robin(c.payload_bytes,
                                      static_cast<std::uint16_t>(count),
                                      c.chunk, c.redundancy),
      c.payload_bytes, c.session.value_or(seeded_session(c.payload_seed)),
      c.payload_seed);
}

/// The spare routes as RoutePolicy candidates, depots named by address.
std::vector<core::CandidateRoute> spares(const StripedPosixSourceConfig& c) {
  std::vector<core::CandidateRoute> out;
  for (const auto& route : c.spare_routes) {
    std::vector<std::string>& w = out.emplace_back().waypoints;
    w.push_back("src");
    for (const InetAddress& hop : route) w.push_back(hop.to_string());
    w.push_back("dst");
  }
  return out;
}

std::string describe(const std::vector<InetAddress>& route) {
  return route.empty() ? "direct" : route.front().to_string();
}

}  // namespace

StripedPosixSource::StripedPosixSource(engine::EpollEngine& loop,
                                       StripedPosixSourceConfig config)
    : loop_(loop),
      config_(std::move(config)),
      set_(lane_set(config_)),
      policy_({}, config_.payload_seed ^ 0x9e3779b97f4a7c15ull,
              spares(config_)),
      sources_(set_.size()) {}

void StripedPosixSource::start() {
  for (std::size_t j = 0; j < set_.size(); ++j) launch_lane(j, set_.plan(j, 0));
}

void StripedPosixSource::launch_lane(std::size_t li,
                                     const core::SourcePlan& plan) {
  // Lane floors are always 0 here (first-hop ACKs cannot see the sink),
  // so the plan's header is the fresh lane header PosixSource builds.
  PosixSourceConfig scfg;
  scfg.route = config_.lane_routes[li];
  scfg.destination = config_.destination;
  scfg.payload_bytes = plan.payload_bytes;
  scfg.payload_seed = plan.payload_seed;
  scfg.dial_timeout = config_.dial_timeout;
  scfg.trace_id = config_.trace_id;
  scfg.session = plan.header.session;
  scfg.stripe = plan.header.stripe;
  scfg.trailer_digest = plan.trailer_digest;
  scfg.payload_fill = plan.payload_fill;
  for (const InetAddress& hop : scfg.route) rode_.insert(hop.to_string());
  auto& source = sources_[li];
  source = std::make_unique<PosixSource>(loop_, std::move(scfg));
  source->on_done = [this, li](bool ok) { on_lane_done(li, ok); };
  source->start();
}

void StripedPosixSource::on_lane_done(std::size_t li, bool ok) {
  if (finished_) return;
  if (ok || session_ok_) {
    // The status byte is group-level: one confirmed lane means the sink
    // verified the whole merged stream, and a lane dying afterwards
    // changes nothing.
    session_ok_ = true;
    set_.settle(li);
    maybe_finish();
    return;
  }
  LSL_LOG_WARN("striped source: lane %zu lost (%s)", li,
               describe(config_.lane_routes[li]).c_str());
  using Loss = core::LaneSet::Loss;
  const Loss loss = set_.lose(li, 0);
  if (loss == Loss::kSettled || loss == Loss::kAbsorbed) {
    maybe_finish();
    return;
  }
  restripe(li, policy_.lost());
}

void StripedPosixSource::restripe(std::size_t li, const fault::Verdict& v) {
  if (v.kind == fault::Verdict::Kind::kGiveUp) {
    LSL_LOG_WARN("striped source: no spare chain for lane %zu (%s); giving up",
                 li, fault::to_string(v.error));
    fail_all();
    return;
  }
  restripes_.push_back(loop_.schedule_in(v.delay, [this, li] {
    if (finished_ || set_[li].settled) return;
    const fault::Verdict next = policy_.moved({}, rode_, set_[li].total);
    if (!next.route) {
      restripe(li, next);  // another tick, or give up
      return;
    }
    config_.lane_routes[li] = config_.spare_routes[*next.route];
    LSL_LOG_INFO("striped source: re-striping lane %zu onto %s", li,
                 describe(config_.lane_routes[li]).c_str());
    launch_lane(li, set_.restripe(li, 0));
  }));
}

void StripedPosixSource::maybe_finish() {
  if (finished_) return;
  // Every finished lane is settled or awaiting its continuation (dead).
  for (std::size_t li = 0; li < set_.size(); ++li) {
    if (!set_[li].settled) return;
  }
  finished_ = true;
  cancel_restripes();
  if (on_done) on_done(session_ok_);
}

void StripedPosixSource::fail_all() {
  if (finished_) return;
  finished_ = true;
  cancel_restripes();
  // Tearing the sources down closes their sockets; the sink sees dead
  // lanes and keeps whatever it merged (a later session is a fresh id).
  for (auto& source : sources_) source.reset();
  if (on_done) on_done(false);
}

void StripedPosixSource::cancel_restripes() {
  for (const util::EventId id : restripes_) loop_.timers().cancel(id);
  restripes_.clear();
}

}  // namespace lsl::posix
