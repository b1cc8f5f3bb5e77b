#include "exp/striped.hpp"

#include <algorithm>
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

constexpr sim::PortNum kSinkPort = 5001;
constexpr sim::PortNum kDepotPort = 4000;

std::string depot_name(std::size_t path) {
  return "depot" + std::to_string(path + 1);
}

/// The whole striped run: braid topology, lane sources, reassembling sink,
/// and the death/restripe driver. One instance per run_striped call.
class StripedRun {
 public:
  explicit StripedRun(const StripedParams& params) : p_(params) {}
  StripedResult run();

 private:
  /// The adapter's half of a lane; what it carries and whether it is
  /// lost or settled is the source core's (core::LaneSet).
  struct Lane {
    std::string depot;            ///< current chain's depot
    std::uint64_t delivered = 0;  ///< in-order lane bytes at the sink
    util::SimTime start = -1;
  };

  void build_topology();
  void seed_database(core::PathDatabase& db) const;
  void make_plan();
  void launch_lane(std::size_t li, core::SourcePlan plan);
  void on_lane(const core::LaneReport& r);
  void lane_death(std::size_t li);
  void schedule_restripe(std::size_t li);
  void scan_dead_depots();
  double path_rate_mbps(std::size_t path) const;

  util::EventQueue& ev() { return net_->sim().events(); }

  const StripedParams& p_;
  StripedResult res_;

  std::unique_ptr<sim::Network> net_;
  sim::Node* src_ = nullptr;
  sim::Node* dst_ = nullptr;
  std::vector<sim::Node*> depot_hosts_;
  std::unique_ptr<tcp::TcpStack> src_stack_;
  std::unique_ptr<tcp::TcpStack> dst_stack_;
  std::vector<std::unique_ptr<tcp::TcpStack>> depot_stacks_;
  core::SessionDirectory dir_;
  std::vector<std::unique_ptr<core::DepotApp>> depot_apps_;
  std::optional<fault::FaultMetrics> fault_metrics_;
  std::unique_ptr<fault::FaultInjector> injector_;

  core::PathDatabase db_;
  std::unique_ptr<core::RouteSelector> selector_;
  std::unique_ptr<fault::ReroutePolicy> rerouter_;
  std::unique_ptr<fault::RetryPolicy> policy_;
  std::vector<core::CandidateRoute> candidates_;

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

double StripedRun::path_rate_mbps(std::size_t path) const {
  if (path < p_.path_rate_mbps.size()) return p_.path_rate_mbps[path];
  return p_.wan_rate.as_mbps();
}

void StripedRun::build_topology() {
  net_ = std::make_unique<sim::Network>(p_.seed);
  src_ = &net_->add_host("src");
  dst_ = &net_->add_host("dst");
  sim::Node& gw_a = net_->add_router("gw_a");
  sim::Node& gw_b = net_->add_router("gw_b");

  // Fat access links: the braid's aggregate must be WAN-limited, or the
  // multipath sweep would just measure the shared edge.
  sim::LinkConfig access;
  access.rate = util::DataRate::mbps(1000);
  access.delay = p_.access_delay;
  access.queue_bytes = util::kMiB;
  net_->connect(*src_, gw_a, access);
  net_->connect(gw_b, *dst_, access);

  for (std::size_t i = 0; i < p_.paths; ++i) {
    sim::LinkConfig seg;
    seg.rate = util::DataRate::mbps(path_rate_mbps(i));
    seg.delay = p_.one_way_delay / 2;
    seg.loss_rate = p_.loss / 2.0;
    seg.queue_bytes = p_.wan_queue_bytes;

    // Appended, not "J" + std::to_string(...): g++ 12 at -O3 warns a
    // false -Wrestrict on the one-character prefix insert.
    std::string router = "J";
    router += std::to_string(i + 1);
    sim::Node& j = net_->add_router(router);
    net_->connect(gw_a, j, seg);
    net_->connect(j, gw_b, seg);

    sim::Node& d = net_->add_host(depot_name(i));
    sim::LinkConfig dlink;
    dlink.rate = util::DataRate::mbps(1000);
    dlink.delay = util::millis(0.5);
    dlink.queue_bytes = util::kMiB;
    net_->connect(j, d, dlink);
    depot_hosts_.push_back(&d);
  }
  net_->compute_routes();

  tcp::TcpConfig tcpc = p_.tcp;
  tcpc.carry_data = true;  // reassembly and MD5 need real bytes

  src_stack_ = std::make_unique<tcp::TcpStack>(*net_, *src_, tcpc);
  dst_stack_ = std::make_unique<tcp::TcpStack>(*net_, *dst_, tcpc);
  for (sim::Node* d : depot_hosts_) {
    depot_stacks_.push_back(std::make_unique<tcp::TcpStack>(*net_, *d, tcpc));
  }

  if (p_.metrics != nullptr) fault_metrics_.emplace(*p_.metrics);
  for (auto& stack : depot_stacks_) {
    core::DepotConfig dcfg = p_.depot;
    dcfg.port = kDepotPort;
    depot_apps_.push_back(
        std::make_unique<core::DepotApp>(*stack, dcfg, &dir_));
  }

  injector_ = std::make_unique<fault::FaultInjector>(
      *net_, p_.plan, fault_metrics_ ? &*fault_metrics_ : nullptr);
  for (std::size_t i = 0; i < depot_apps_.size(); ++i) {
    injector_->register_depot(depot_name(i), depot_apps_[i].get());
  }
}

void StripedRun::seed_database(core::PathDatabase& db) const {
  // Deterministic seeding from the braid's own geometry (cf. run_chaos):
  // each src<->depot_i / depot_i<->dst sublink crosses one access link,
  // one WAN segment, and the depot's local link.
  for (std::size_t i = 0; i < p_.paths; ++i) {
    const double one_way_s = util::to_seconds(p_.access_delay) +
                             util::to_seconds(p_.one_way_delay) / 2.0 +
                             0.5e-3;
    const double rtt_ms = 2.0 * one_way_s * 1e3;
    const double bw = path_rate_mbps(i);
    const double loss = std::max(p_.loss / 2.0, 1e-7);
    const std::string d = depot_name(i);
    db.observe_rtt_ms("src", d, rtt_ms);
    db.observe_bandwidth_mbps("src", d, bw);
    db.observe_loss_rate("src", d, loss);
    db.observe_rtt_ms(d, "dst", rtt_ms);
    db.observe_bandwidth_mbps(d, "dst", bw);
    db.observe_loss_rate(d, "dst", loss);
  }
}

void StripedRun::make_plan() {
  seed_database(db_);
  selector_ = std::make_unique<core::RouteSelector>(
      db_, 1448.0, util::to_seconds(p_.depot.session_setup_latency));
  rerouter_ = std::make_unique<fault::ReroutePolicy>(*selector_);
  policy_ = std::make_unique<fault::RetryPolicy>(
      p_.retry, p_.seed ^ 0x9e3779b97f4a7c15ull);

  for (std::size_t i = 0; i < p_.paths; ++i) {
    core::CandidateRoute r;
    r.waypoints = {"src", depot_name(i), "dst"};
    candidates_.push_back(std::move(r));
  }

  const std::vector<core::CandidateRoute> routes = stripe::disjoint_routes(
      *selector_, candidates_, p_.stripes, p_.bytes);
  LSL_PRECONDITION(routes.size() == p_.stripes,
                   "striped: not enough disjoint chains for the lane count");

  stripe::StripePlan plan;  // empty: one unstriped lane
  if (p_.stripes >= 2) {
    if (p_.weighted) {
      std::vector<double> weights;
      for (const core::CandidateRoute& r : routes) {
        const double t = selector_->predict_transfer_seconds(r, p_.bytes);
        weights.push_back(t > 0.0 ? 1.0 / t : 1.0);
      }
      plan = stripe::StripePlan::weighted(p_.bytes, weights);
    } else {
      plan = stripe::StripePlan::round_robin(p_.bytes, p_.stripes, p_.chunk,
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
  sim::Node* depot_node = net_->find_node(lane.depot);
  scfg.header.hops.push_back({depot_node->id(), kDepotPort});
  scfg.header.destination = {dst_->id(), kSinkPort};

  const sim::Endpoint first_hop{depot_node->id(), kDepotPort};
  sources_.push_back(std::make_unique<core::SourceApp>(
      *src_stack_, first_hop, scfg, &dir_));
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
  schedule_restripe(li);
}

void StripedRun::schedule_restripe(std::size_t li) {
  const auto delay = policy_->next_delay();
  if (!delay) {
    restripe_failed_ = true;
    return;
  }
  if (fault_metrics_) fault_metrics_->on_attempt();
  ev().schedule_in(*delay, [this, li] {
    Lane& lane = lanes_[li];
    std::set<std::string> excluded = injector_->dead_depots();
    excluded.insert(lane.depot);
    for (std::size_t j = 0; j < lanes_.size(); ++j) {
      if ((*set_)[j].live()) excluded.insert(lanes_[j].depot);
    }
    fault::RerouteError err = fault::RerouteError::kNone;
    const auto chosen = rerouter_->choose_excluding(
        candidates_, excluded, (*set_)[li].total - lane.delivered, &err);
    if (!chosen) {
      // A crashed chain may come back (scripted restart): burn the tick
      // and try again while the budget lasts, like run_chaos.
      LSL_LOG_WARN("striped: no spare chain for lane %zu (%s)", li,
                   fault::to_string(err));
      schedule_restripe(li);
      return;
    }
    lane.depot = chosen->waypoints[1];
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

  build_topology();
  make_plan();

  if (p_.metrics != nullptr) {
    stripe_metrics_.emplace(*p_.metrics, p_.stripes);
  }
  core::SinkConfig scfg;
  scfg.expect_header = true;
  scfg.verify_payload = true;
  scfg.payload_seed = p_.seed;
  sink_ = std::make_unique<core::SinkServer>(*dst_stack_, kSinkPort, scfg,
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

  res_.attempts = policy_->attempts_made();
  res_.faults_injected = injector_->injected();
  for (const Lane& lane : lanes_) res_.lane_routes.push_back(lane.depot);
  res_.stripes_lost = set_->lost();
  res_.stripes_recovered = set_->recovered();
  res_.retransmitted_bytes = set_->retransmitted();
  const auto count_retx = [this](const tcp::TcpSocket& s) {
    res_.retransmits += s.stats().retransmits;
  };
  src_stack_->for_each_connection(count_retx);
  dst_stack_->for_each_connection(count_retx);
  for (const auto& s : depot_stacks_) s->for_each_connection(count_retx);
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
