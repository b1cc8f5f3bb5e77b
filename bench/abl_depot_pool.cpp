// Scalability (paper §VII): contention and depot pooling. "We did not
// measure the effects of multiple-connection contention ... admission
// control and load balancing over a pool of available depots could easily
// be used to provide scalability."
//
// N concurrent LSL sessions share the POP; they are balanced round-robin
// over K depot daemons attached to it. With one depot, every session queues
// behind the daemon's single copy resource; adding depots restores
// per-session throughput until the WAN segments bind.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "exp/scenarios.hpp"
#include "lsl/apps.hpp"
#include "lsl/directory.hpp"
#include "lsl/session_id.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace lsl;

namespace {

using exp::kDepotPort;

/// One shared POP with `depots` depot daemons ("depot0"..) hanging off it;
/// each relays about 18 Mbit/s.
exp::Scenario pooled_pop(std::size_t depots, std::uint64_t seed) {
  exp::Scenario sc;
  sc.net = std::make_unique<sim::Network>(seed);
  sc.depot = {.buffer_bytes = util::kMiB,
              .copy_rate = util::DataRate::mbps(18),
              .wakeup_latency = util::micros(200),
              .session_setup_latency = util::millis(40)};
  sc.initial_ssthresh = 64 * util::kKiB;
  sim::Network& net = *sc.net;
  sc.src = &net.add_host("src");
  sc.dst = &net.add_host("dst");
  sim::Node& gw_s = net.add_router("gw_s");
  sim::Node& pop = net.add_router("pop");
  sim::Node& gw_d = net.add_router("gw_d");

  sim::LinkConfig access;
  access.rate = util::DataRate::mbps(200);
  access.delay = util::millis(0.5);
  net.connect(*sc.src, gw_s, access);
  net.connect(gw_d, *sc.dst, access);

  sim::LinkConfig wan;
  wan.rate = util::DataRate::mbps(60);
  wan.delay = util::millis(14);
  wan.loss_rate = 1.4e-4;
  net.connect(gw_s, pop, wan);
  net.connect(pop, gw_d, wan);

  for (std::size_t i = 0; i < depots; ++i) {
    sim::Node& d = net.add_host("depot" + std::to_string(i));
    sim::LinkConfig dlink;
    dlink.rate = util::DataRate::mbps(100);
    dlink.delay = util::millis(1.5);
    net.connect(pop, d, dlink);
    sc.depots.push_back(&d);
  }
  net.compute_routes();
  return sc;
}

/// src -- depot -- dst over 200 Mbit/s, 1 ms links: the depot's 18 Mbit/s
/// copy is the bottleneck.
exp::Scenario lone_depot(std::uint64_t seed) {
  exp::Scenario sc;
  sc.net = std::make_unique<sim::Network>(seed);
  sc.depot = {.buffer_bytes = 4 * util::kMiB,
              .copy_rate = util::DataRate::mbps(18),
              .wakeup_latency = util::micros(200),
              .session_setup_latency = util::millis(5),
              .pool_low_watermark = 0.25,
              .pool_high_watermark = 0.50};
  sc.initial_ssthresh = 64 * util::kKiB;
  sim::Network& net = *sc.net;
  sc.src = &net.add_host("src");
  sc.dst = &net.add_host("dst");
  sc.depots = {&net.add_host("depot")};

  sim::LinkConfig fast;
  fast.rate = util::DataRate::mbps(200);
  fast.delay = util::millis(1);
  net.connect(*sc.src, *sc.depots[0], fast);
  net.connect(*sc.depots[0], *sc.dst, fast);
  net.compute_routes();
  return sc;
}

struct Result {
  double aggregate_mbps = 0.0;
  double per_session_mean = 0.0;
  bool ok = false;
};

Result run_pool(std::size_t sessions, std::size_t depots, std::uint64_t bytes,
                std::uint64_t seed) {
  exp::Scenario sc = pooled_pop(depots, seed);
  core::SessionDirectory dir;
  exp::Hosts hosts(sc, {});
  hosts.start_depots(sc.depot, &dir);

  std::size_t completed = 0;
  util::SimTime last_done = 0;
  std::vector<double> per_session;
  std::vector<std::unique_ptr<core::SinkServer>> sinks;
  std::vector<std::unique_ptr<core::SourceApp>> sources;
  std::vector<util::SimTime> starts(sessions, 0);

  for (std::size_t i = 0; i < sessions; ++i) {
    const auto sink_port = static_cast<sim::PortNum>(exp::kSinkPort + i);
    core::SinkConfig scfg;
    scfg.expect_header = true;
    sinks.push_back(
        std::make_unique<core::SinkServer>(hosts.dst, sink_port, scfg, &dir));
    sinks.back()->on_complete = [&, i](core::SinkApp& app) {
      ++completed;
      last_done = std::max(last_done, app.complete_time());
      per_session.push_back(util::throughput_mbps(
          app.payload_received(), app.complete_time() - starts[i]));
    };

    sim::Node* depot = sc.depots[i % depots];
    core::SourceConfig cfg;
    cfg.payload_bytes = bytes;
    cfg.use_header = true;
    util::Rng rng(seed * 100 + i);
    cfg.header.session = core::SessionId::generate(rng);
    cfg.header.payload_length = bytes;
    cfg.header.hops = {{depot->id(), kDepotPort}};
    cfg.header.destination = {sc.dst->id(), sink_port};
    sources.push_back(std::make_unique<core::SourceApp>(
        hosts.src, sim::Endpoint{depot->id(), kDepotPort}, cfg, &dir));
    sources.back()->start();
    starts[i] = sources.back()->start_time();
  }

  auto& ev = sc.net->sim().events();
  while (completed < sessions && ev.now() <= 3600ll * util::kSecond &&
         ev.step()) {
  }
  Result res;
  if (completed < sessions) return res;
  res.ok = true;
  res.aggregate_mbps = util::throughput_mbps(
      bytes * sessions, last_done - starts[0]);
  res.per_session_mean = util::mean(per_session);
  return res;
}

struct BudgetResult {
  std::size_t completed = 0;
  std::uint64_t refused_memory = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t pressure_episodes = 0;
  double aggregate_mbps = 0.0;
};

// Memory-budget leg: one depot whose copy resource is the bottleneck, with
// the pooled-memory admission model enabled. Sessions arrive staggered so
// early arrivals drive the buffer into the high watermark and later ones
// face refusal; shrinking the budget trades buffered bytes (and admitted
// sessions) against a hard per-depot memory ceiling.
BudgetResult run_budget(std::size_t sessions, std::uint64_t budget_bytes,
                        std::uint64_t bytes, std::uint64_t seed) {
  exp::Scenario sc = lone_depot(seed);
  core::SessionDirectory dir;
  exp::Hosts hosts(sc, {});
  core::DepotConfig dcfg = sc.depot;
  dcfg.pool_budget_bytes = budget_bytes;
  hosts.start_depots(dcfg, &dir);
  const core::DepotApp& app = *hosts.depots[0];
  sim::Node& depot = *sc.depots[0];

  std::size_t completed = 0;
  util::SimTime first_start = 0;
  util::SimTime last_done = 0;
  std::vector<std::unique_ptr<core::SinkServer>> sinks;
  std::vector<std::unique_ptr<core::SourceApp>> sources;
  sources.reserve(sessions);

  auto& ev = sc.net->sim().events();
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto sink_port = static_cast<sim::PortNum>(exp::kSinkPort + i);
    core::SinkConfig scfg;
    scfg.expect_header = true;
    sinks.push_back(
        std::make_unique<core::SinkServer>(hosts.dst, sink_port, scfg, &dir));
    sinks.back()->on_complete = [&](core::SinkApp& s) {
      ++completed;
      last_done = std::max(last_done, s.complete_time());
    };

    ev.schedule_at(static_cast<util::SimTime>(i) * util::millis(200),
                   [&, i, sink_port] {
      core::SourceConfig cfg;
      cfg.payload_bytes = bytes;
      cfg.use_header = true;
      util::Rng rng(seed * 100 + i);
      cfg.header.session = core::SessionId::generate(rng);
      cfg.header.payload_length = bytes;
      cfg.header.hops = {{depot.id(), kDepotPort}};
      cfg.header.destination = {sc.dst->id(), sink_port};
      sources.push_back(std::make_unique<core::SourceApp>(
          hosts.src, sim::Endpoint{depot.id(), kDepotPort}, cfg, &dir));
      sources.back()->start();
      if (i == 0) first_start = sources.back()->start_time();
    });
  }

  while (ev.now() <= 3600ll * util::kSecond && ev.step()) {
  }

  BudgetResult res;
  res.completed = completed;
  res.refused_memory = app.stats().sessions_refused_memory;
  res.peak_bytes = app.memory().peak();
  res.pressure_episodes = app.memory().pressure_episodes();
  if (completed > 0 && last_done > first_start) {
    res.aggregate_mbps =
        util::throughput_mbps(bytes * completed, last_done - first_start);
  }
  return res;
}

}  // namespace

int main() {
  const std::uint64_t bytes = 16 * util::kMiB;
  const std::size_t iters = lsl::bench::iterations(3);

  struct Combo {
    std::size_t sessions, depots;
  };
  const Combo combos[] = {{1, 1}, {2, 1}, {4, 1}, {8, 1},
                          {2, 2}, {4, 2}, {4, 4}, {8, 4}};

  util::Table t("Scalability: N concurrent sessions over K pooled depots "
                "(16MB each; one depot sustains ~18 Mbit/s of relay copy)",
                {"sessions", "depots", "aggregate_mbps", "per_session_mbps"});
  for (const Combo& c : combos) {
    util::RunningStats agg, per;
    for (std::size_t i = 0; i < iters; ++i) {
      const Result r =
          run_pool(c.sessions, c.depots, bytes, lsl::bench::base_seed() + i);
      if (r.ok) {
        agg.add(r.aggregate_mbps);
        per.add(r.per_session_mean);
      }
    }
    t.add_row({util::Cell(static_cast<std::uint64_t>(c.sessions)),
               util::Cell(static_cast<std::uint64_t>(c.depots)),
               util::Cell(agg.mean(), 2), util::Cell(per.mean(), 2)});
  }
  lsl::bench::emit(t, "abl_depot_pool");

  // Memory-budget sweep: same depot, shrinking pooled-memory budget. The
  // budget caps buffered bytes (peak <= budget) and, under pressure, turns
  // new sessions away at admission instead of growing without bound.
  const std::uint64_t budgets[] = {0, 4 * util::kMiB, util::kMiB,
                                   256 * util::kKiB};
  util::Table bt("Admission under a per-depot memory budget: 8 staggered "
                 "sessions, 4MB each (0 = unlimited)",
                 {"budget_kib", "completed", "refused_mem", "peak_kib",
                  "pressure_eps", "aggregate_mbps"});
  for (const std::uint64_t budget : budgets) {
    const BudgetResult r =
        run_budget(8, budget, 4 * util::kMiB, lsl::bench::base_seed());
    bt.add_row({util::Cell(budget / util::kKiB),
                util::Cell(static_cast<std::uint64_t>(r.completed)),
                util::Cell(r.refused_memory),
                util::Cell(r.peak_bytes / util::kKiB),
                util::Cell(r.pressure_episodes),
                util::Cell(r.aggregate_mbps, 2)});
  }
  lsl::bench::emit(bt, "abl_depot_pool_budget");
  return 0;
}
