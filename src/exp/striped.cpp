#include "exp/striped.hpp"

#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "exp/scenarios.hpp"
#include "fault/fault_metrics.hpp"
#include "fault/injector.hpp"
#include "lsl/apps.hpp"
#include "lsl/directory.hpp"
#include "lsl/payload.hpp"
#include "lsl/selector.hpp"
#include "lsl/session_id.hpp"
#include "sim/network.hpp"
#include "stripe/plan.hpp"
#include "stripe/stripe_metrics.hpp"
#include "tcp/stack.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::exp {

namespace {

/// Round-robin cell size.
constexpr std::uint32_t kChunk = 64 * util::kKiB;

/// The whole striped run: lane sources on the braid's hosts, the
/// reassembling sink, and the death/restripe driver. One instance per
/// run_striped call.
class StripedRun {
 public:
  explicit StripedRun(const StripedParams& params)
      : p_(params),
        sc_(build_braid(params.paths, params.seed)),
        // Lanes carry real bytes: the sink reassembles them and checks
        // the MD5.
        hosts_(sc_, {.carry_data = true}) {}
  StripedResult run();

 private:
  /// The adapter's half of a lane; what it carries and whether it is
  /// lost or settled is the source core's (core::LaneSet).
  struct Lane {
    std::string depot;            ///< current chain's depot
    std::uint64_t delivered = 0;  ///< in-order lane bytes at the sink
    util::SimTime start = -1;
  };

  void start_depots();
  void make_plan();
  void launch_lane(std::size_t li, core::SourcePlan plan);
  void on_lane(const core::LaneReport& r);
  void lane_death(std::size_t li);
  void schedule_restripe(std::size_t li, const fault::Verdict& v);
  void scan_dead_depots();

  util::EventQueue& ev() { return sc_.net->sim().events(); }

  const StripedParams& p_;
  StripedResult res_;

  Scenario sc_;
  core::SessionDirectory dir_;
  Hosts hosts_;
  std::optional<fault::FaultMetrics> fault_metrics_;
  std::unique_ptr<fault::FaultInjector> injector_;

  core::PathDatabase db_;
  core::RouteSelector selector_{
      db_, 1448.0, util::to_seconds(sc_.depot.session_setup_latency)};
  std::optional<fault::RoutePolicy> policy_;

  std::optional<core::LaneSet> set_;
  std::vector<Lane> lanes_;

  std::optional<stripe::StripeMetrics> stripe_metrics_;
  std::unique_ptr<core::SinkServer> sink_;
  std::vector<std::unique_ptr<core::SourceApp>> sources_;

  /// The sink's verdict on the merged stream, once it has one.
  std::optional<bool> verdict_;
  util::SimTime first_start_ = -1;
  util::SimTime merge_time_ = -1;
  bool restripe_failed_ = false;
};

void StripedRun::start_depots() {
  if (p_.metrics != nullptr) fault_metrics_.emplace(*p_.metrics);
  hosts_.start_depots(sc_.depot, &dir_);
  injector_ = std::make_unique<fault::FaultInjector>(
      *sc_.net, p_.plan, fault_metrics_ ? &*fault_metrics_ : nullptr);
  for (std::size_t i = 0; i < hosts_.depots.size(); ++i) {
    injector_->register_depot(sc_.depots[i]->name(), hosts_.depots[i].get());
  }
}

void StripedRun::make_plan() {
  std::vector<core::CandidateRoute> candidates;
  for (const sim::Node* d : sc_.depots) {
    core::CandidateRoute r;
    r.waypoints = {"src", d->name(), "dst"};
    candidates.push_back(std::move(r));
  }
  seed_path_database(db_, *sc_.net, candidates);
  policy_.emplace(p_.retry, p_.seed ^ 0x9e3779b97f4a7c15ull,
                  std::move(candidates), &selector_);

  const std::vector<core::CandidateRoute> routes = stripe::disjoint_routes(
      selector_, policy_->candidates(), p_.stripes, p_.bytes);
  LSL_PRECONDITION(routes.size() == p_.stripes,
                   "striped: not enough disjoint chains for the lane count");

  stripe::StripePlan plan;  // empty: one unstriped lane
  if (p_.stripes >= 2) {
    if (p_.weighted) {
      std::vector<double> weights;
      for (const core::CandidateRoute& r : routes) {
        const double t = selector_.predict_transfer_seconds(r, p_.bytes);
        weights.push_back(t > 0.0 ? 1.0 / t : 1.0);
      }
      plan = stripe::StripePlan::weighted(p_.bytes, weights);
    } else {
      plan = stripe::StripePlan::round_robin(p_.bytes, p_.stripes, kChunk,
                                             p_.redundancy);
    }
  }
  util::Rng id_rng(p_.seed);
  set_.emplace(std::move(plan), p_.bytes, core::SessionId::generate(id_rng),
               p_.seed);

  lanes_.resize(p_.stripes);
  for (std::size_t j = 0; j < p_.stripes; ++j) {
    lanes_[j].depot = routes[j].waypoints[1];
  }
}

void StripedRun::launch_lane(std::size_t li, core::SourcePlan plan) {
  Lane& lane = lanes_[li];
  core::SourceConfig scfg;
  static_cast<core::SourcePlan&>(scfg) = std::move(plan);
  sim::Node* depot_node = sc_.net->find_node(lane.depot);
  scfg.header.hops.push_back({depot_node->id(), kDepotPort});
  scfg.header.destination = {sc_.dst->id(), kSinkPort};

  const sim::Endpoint first_hop{depot_node->id(), kDepotPort};
  sources_.push_back(std::make_unique<core::SourceApp>(
      hosts_.src, first_hop, scfg, &dir_));
  core::SourceApp* app = sources_.back().get();
  app->start();
  if (lane.start < 0) lane.start = app->start_time();
  if (first_start_ < 0) first_start_ = app->start_time();
}

void StripedRun::on_lane(const core::LaneReport& r) {
  if (r.lane >= lanes_.size()) return;
  Lane& lane = lanes_[r.lane];
  switch (r.event) {
    case core::LaneReport::Event::kDone:
      set_->settle(r.lane);
      return;
    case core::LaneReport::Event::kDead:
      lane_death(r.lane);
      return;
    case core::LaneReport::Event::kProgress:
      break;
  }
  lane.delivered = r.position;
  res_.duplicate_bytes += r.bytes - r.fresh;
  if (stripe_metrics_) {
    stripe_metrics_->bytes_merged->inc(r.fresh);
    stripe_metrics_->bytes_duplicate->inc(r.bytes - r.fresh);
    stripe_metrics_->reassembly_buffer_bytes->set(
        static_cast<double>(r.buffered));
    stripe_metrics_->holes_outstanding->set(static_cast<double>(r.holes));
    if (lane.start >= 0) {
      const double elapsed = util::to_seconds(ev().now() - lane.start);
      if (elapsed > 0.0) {
        stripe_metrics_->on_lane_rate(
            r.lane, 8.0 * static_cast<double>(lane.delivered) / elapsed);
      }
    }
  }
  if (r.merged && merge_time_ < 0) {
    merge_time_ = ev().now();
    if (stripe_metrics_) stripe_metrics_->sessions_completed->inc();
  }
}

void StripedRun::lane_death(std::size_t li) {
  const Lane& lane = lanes_[li];
  const core::LaneSet::Loss loss = set_->lose(li, lane.delivered);
  if (loss == core::LaneSet::Loss::kSettled) return;
  if (stripe_metrics_) stripe_metrics_->stripes_lost->inc();
  LSL_LOG_INFO("striped: lane %zu died on %s at %llu/%llu lane bytes", li,
               lane.depot.c_str(),
               static_cast<unsigned long long>(lane.delivered),
               static_cast<unsigned long long>((*set_)[li].total));
  if (loss == core::LaneSet::Loss::kAbsorbed) {
    LSL_LOG_INFO("striped: redundancy covers lane %zu, no restripe", li);
    return;
  }
  schedule_restripe(li, policy_->lost());
}

void StripedRun::schedule_restripe(std::size_t li, const fault::Verdict& v) {
  if (v.kind == fault::Verdict::Kind::kGiveUp) {
    restripe_failed_ = true;
    return;
  }
  if (fault_metrics_) fault_metrics_->on_attempt();
  ev().schedule_in(v.delay, [this, li] {
    Lane& lane = lanes_[li];
    std::set<std::string> in_use = {lane.depot};
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if ((*set_)[j].live()) in_use.insert(lanes_[j].depot);
    }
    const fault::Verdict next = policy_->moved(
        injector_->dead_depots(), in_use, (*set_)[li].total - lane.delivered);
    if (!next.route) {
      LSL_LOG_WARN("striped: no spare chain for lane %zu", li);
      schedule_restripe(li, next);  // another tick, or give up
      return;
    }
    lane.depot = policy_->candidates()[*next.route].waypoints[1];
    if (stripe_metrics_) stripe_metrics_->stripes_recovered->inc();
    // The sink's lane position is the floor: the merge holds every byte
    // below it.
    core::SourcePlan plan = set_->restripe(li, lane.delivered);
    LSL_LOG_INFO("striped: lane %zu re-striped onto %s (resume %llu)", li,
                 lane.depot.c_str(),
                 static_cast<unsigned long long>(plan.header.resume_offset));
    launch_lane(li, std::move(plan));
  });
}

void StripedRun::scan_dead_depots() {
  const std::set<std::string>& dead = injector_->dead_depots();
  if (dead.empty()) return;
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    if ((*set_)[li].live() && dead.count(lanes_[li].depot) > 0) {
      lane_death(li);
    }
  }
}

StripedResult StripedRun::run() {
  LSL_PRECONDITION(p_.stripes >= 1 && p_.stripes <= core::kMaxStripes,
                   "striped: lane count out of range");
  LSL_PRECONDITION(p_.paths >= p_.stripes,
                   "striped: need at least one path per lane");
  res_.lanes = p_.stripes;

  start_depots();
  make_plan();

  if (p_.metrics != nullptr) {
    stripe_metrics_.emplace(*p_.metrics, p_.stripes);
  }
  core::SinkConfig scfg;
  scfg.expect_header = true;
  scfg.verify_payload = true;
  scfg.payload_seed = p_.seed;
  sink_ = std::make_unique<core::SinkServer>(hosts_.dst, kSinkPort, scfg,
                                             nullptr);
  sink_->core().on_lane = [this](const core::LaneReport& r) { on_lane(r); };
  // Lanes merge into one group verdict; an unstriped lane is verified as an
  // ordinary session.
  sink_->on_verdict = [this](const core::SinkVerdict& v) { verdict_ = v.ok; };
  sink_->on_complete = [this](core::SinkApp& app) {
    if (!(*set_)[0].info && app.payload_received() == p_.bytes) {
      verdict_ = app.verified();
    }
  };

  injector_->arm();
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    launch_lane(li, set_->plan(li, 0));
  }

  // Drive until the sink verdicts the merged stream, a restripe ran out of
  // budget, or nothing is left to simulate.
  while (!verdict_ && !restripe_failed_ && ev().now() <= kRunDeadline &&
         ev().step()) {
    scan_dead_depots();
  }

  res_.attempts = policy_->attempts();
  res_.faults_injected = injector_->injected();
  for (const Lane& lane : lanes_) res_.lane_routes.push_back(lane.depot);
  res_.stripes_lost = set_->lost();
  res_.stripes_recovered = set_->recovered();
  res_.retransmitted_bytes = set_->retransmitted();
  res_.retransmits = hosts_.retransmits();
  res_.events = ev().executed_count();

  if (merge_time_ >= 0) {
    res_.completed = true;
    res_.verified = verdict_.value_or(false);
    const util::SimDuration elapsed = merge_time_ - first_start_;
    res_.seconds = util::to_seconds(elapsed);
    res_.mbps = util::throughput_mbps(p_.bytes, elapsed);
  }
  return res_;
}

}  // namespace

StripedResult run_striped(const StripedParams& params) {
  StripedRun run(params);
  return run.run();
}

}  // namespace lsl::exp
