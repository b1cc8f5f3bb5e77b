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
      c.payload_seed, c.max_restripes);
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
  scfg.send_digest = true;
  scfg.dial_timeout = config_.dial_timeout;
  scfg.trace_id = config_.trace_id;
  scfg.session = plan.header.session;
  scfg.stripe = plan.header.stripe;
  scfg.trailer_digest = plan.trailer_digest;
  scfg.payload_fill = plan.payload_fill;
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
  std::vector<InetAddress>& route = config_.lane_routes[li];
  LSL_LOG_WARN("striped source: lane %zu lost (%s)", li,
               describe(route).c_str());
  using Loss = core::LaneSet::Loss;
  const Loss loss = set_.lose(li, 0);
  if (loss == Loss::kSettled || loss == Loss::kAbsorbed) {
    maybe_finish();
    return;
  }
  if (loss == Loss::kGiveUp || config_.spare_routes.empty()) {
    LSL_LOG_WARN("striped source: no spare chain for lane %zu; giving up",
                 li);
    fail_all();
    return;
  }
  route = config_.spare_routes.front();
  config_.spare_routes.erase(config_.spare_routes.begin());
  timers_.push_back(std::make_unique<engine::EngineTimer>(loop_, [this, li] {
    if (finished_ || set_[li].settled) return;
    LSL_LOG_INFO("striped source: re-striping lane %zu onto %s", li,
                 describe(config_.lane_routes[li]).c_str());
    launch_lane(li, set_.restripe(li, 0));
  }));
  timers_.back()->arm(engine::EngineTimer::now_ns() +
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          config_.restripe_delay)
                          .count());
}

void StripedPosixSource::maybe_finish() {
  if (finished_) return;
  // Every finished lane is settled or awaiting its continuation (dead).
  for (std::size_t li = 0; li < set_.size(); ++li) {
    if (!set_[li].settled) return;
  }
  finished_ = true;
  timers_.clear();
  if (on_done) on_done(session_ok_);
}

void StripedPosixSource::fail_all() {
  if (finished_) return;
  finished_ = true;
  timers_.clear();
  // Tearing the sources down closes their sockets; the sink sees dead
  // lanes and keeps whatever it merged (a later session is a fresh id).
  for (auto& source : sources_) source.reset();
  if (on_done) on_done(false);
}

}  // namespace lsl::posix
