#include "posix/striped_client.hpp"

#include <algorithm>
#include <utility>

#include "util/contract.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::posix {

StripedPosixSource::StripedPosixSource(EpollLoop& loop,
                                       StripedPosixSourceConfig config)
    : loop_(loop), config_(std::move(config)) {
  const std::size_t count = config_.lane_routes.size();
  LSL_PRECONDITION(count >= 2 && count <= core::kMaxStripes,
                   "striped source: lane count out of range");
  restripes_left_ = config_.max_restripes;

  if (config_.session) {
    session_ = *config_.session;
  } else {
    util::Rng rng(config_.payload_seed ^ 0xabcdef);
    session_ = core::SessionId::generate(rng);
  }
  session_digest_ =
      core::stream_digest(config_.payload_seed, config_.payload_bytes);
  plan_ = stripe::StripePlan::round_robin(
      config_.payload_bytes, static_cast<std::uint16_t>(count),
      config_.chunk, config_.redundancy);

  lanes_.resize(count);
  for (std::size_t j = 0; j < count; ++j) {
    lanes_[j].info = plan_.lanes[j];
    lanes_[j].total = plan_.lane_bytes[j];
    lanes_[j].route = config_.lane_routes[j];
  }
}

void StripedPosixSource::start() {
  for (std::size_t j = 0; j < lanes_.size(); ++j) launch_lane(j);
}

void StripedPosixSource::launch_lane(std::size_t li) {
  Lane& lane = lanes_[li];
  PosixSourceConfig scfg;
  scfg.route = lane.route;
  scfg.destination = config_.destination;
  scfg.payload_bytes = lane.total;
  scfg.payload_seed = config_.payload_seed;
  scfg.send_digest = true;
  scfg.dial_timeout = config_.dial_timeout;
  scfg.trace_id = config_.trace_id;
  scfg.session = session_;
  scfg.stripe = lane.info;
  scfg.trailer_digest = session_digest_;
  auto filler = std::make_shared<stripe::LaneFiller>(
      lane.info, lane.total, /*base=*/0, config_.payload_seed);
  scfg.payload_fill = [filler](std::uint64_t off,
                               std::span<std::uint8_t> out) {
    filler->fill(off, out);
  };
  lane.source = std::make_unique<PosixSource>(loop_, std::move(scfg));
  lane.source->on_done = [this, li](bool ok) { on_lane_done(li, ok); };
  lane.source->start();
}

void StripedPosixSource::on_lane_done(std::size_t li, bool ok) {
  if (finished_) return;
  Lane& lane = lanes_[li];
  if (ok) {
    // The status byte is group-level: one confirmed lane means the sink
    // verified the whole merged stream.
    lane.settled = true;
    session_ok_ = true;
    maybe_finish();
    return;
  }
  if (session_ok_) {
    // Merge already confirmed; a lane dying afterwards changes nothing.
    lane.settled = true;
    maybe_finish();
    return;
  }
  lane.dead = true;
  ++stripes_lost_;
  LSL_LOG_WARN("striped source: lane %zu lost (%s)", li,
               lane.route.empty() ? "direct"
                                  : lane.route.front().to_string().c_str());
  if (stripe::survivors_cover(plan_, dead_mask())) {
    lane.settled = true;
    LSL_LOG_INFO("striped source: redundancy covers lane %zu", li);
    maybe_finish();
    return;
  }
  if (restripes_left_ == 0 || config_.spare_routes.empty()) {
    LSL_LOG_WARN("striped source: no spare chain for lane %zu; giving up",
                 li);
    fail_all();
    return;
  }
  --restripes_left_;
  lane.route = config_.spare_routes.front();
  config_.spare_routes.erase(config_.spare_routes.begin());
  ++stripes_recovered_;
  // Only first-hop ACKs are visible here, and a crashed depot may have
  // acked bytes it never relayed — so the replacement resends the whole
  // lane and the sink's reassembler drops what it already holds.
  retransmitted_ += lane.total;
  timers_.push_back(nullptr);
  auto& slot = timers_.back();
  slot = std::make_unique<TimerFd>(loop_, [this, li] {
    Lane& l = lanes_[li];
    if (finished_ || l.settled) return;
    l.dead = false;
    LSL_LOG_INFO("striped source: re-striping lane %zu onto %s", li,
                 l.route.empty() ? "direct"
                                 : l.route.front().to_string().c_str());
    launch_lane(li);
  });
  slot->arm(TimerFd::now_ns() +
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                config_.restripe_delay)
                .count());
}

std::uint32_t StripedPosixSource::dead_mask() const {
  std::uint32_t mask = 0;
  for (std::size_t j = 0; j < lanes_.size(); ++j) {
    if (lanes_[j].dead) mask |= 1u << j;
  }
  return mask;
}

void StripedPosixSource::maybe_finish() {
  if (finished_) return;
  for (const Lane& lane : lanes_) {
    if (lane.settled) continue;
    if (lane.dead) return;  // a re-stripe is pending for this lane
    if (!(lane.source && lane.source->finished())) return;
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
  for (Lane& lane : lanes_) lane.source.reset();
  if (on_done) on_done(false);
}

}  // namespace lsl::posix
