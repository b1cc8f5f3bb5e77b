// Extension (paper §VII): multipath sessions. "We believe that this
// abstraction is also useful for other approaches such as multi-path
// performance optimizations and parallel TCP streams."
//
// Topology: two disjoint WAN paths between the endpoints, each with its own
// POP and depot. The session layer stripes one logical transfer across two
// cascaded sessions, one per path; completion is when both stripes land.
//
//        popA(25 Mbit, 27 ms one-way, lossier)--- depotA
//   src <                                              > dst
//        popB(18 Mbit, 35 ms one-way, cleaner) --- depotB
//
// Compared: direct TCP (routed over the best path), single-path LSL via
// each depot, a naive 50/50 stripe, and a rate-weighted stripe using the
// per-path LSL throughput the single-path runs measured (what an
// NWS-informed splitter would do).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "exp/scenarios.hpp"
#include "exp/striped.hpp"
#include "lsl/apps.hpp"
#include "lsl/directory.hpp"
#include "lsl/session_id.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace lsl;

namespace {

constexpr sim::PortNum kSinkA = exp::kSinkPort;
constexpr sim::PortNum kSinkB = exp::kSinkPort + 1;

/// The two disjoint paths above; depot_a is depots[0], depot_b depots[1].
exp::Scenario two_paths(std::uint64_t seed) {
  exp::Scenario sc;
  sc.net = std::make_unique<sim::Network>(seed);
  sc.depot = {.buffer_bytes = util::kMiB,
              .copy_rate = util::DataRate::mbps(60),
              .session_setup_latency = util::millis(40)};
  sc.initial_ssthresh = 64 * util::kKiB;
  auto& net = *sc.net;
  sc.src = &net.add_host("src");
  sc.dst = &net.add_host("dst");
  sim::Node& gw_s = net.add_router("gw_s");
  sim::Node& gw_d = net.add_router("gw_d");
  sim::Node& pop_a = net.add_router("pop_a");
  sim::Node& pop_b = net.add_router("pop_b");
  sc.depots = {&net.add_host("depot_a"), &net.add_host("depot_b")};

  sim::LinkConfig access;
  access.rate = util::DataRate::mbps(100);
  access.delay = util::millis(0.5);
  net.connect(*sc.src, gw_s, access);
  net.connect(gw_d, *sc.dst, access);

  sim::LinkConfig wan_a;  // fast but lossy
  wan_a.rate = util::DataRate::mbps(25);
  wan_a.delay = util::millis(13.5);
  wan_a.loss_rate = 2e-4;
  net.connect(gw_s, pop_a, wan_a);
  net.connect(pop_a, gw_d, wan_a);

  sim::LinkConfig wan_b = wan_a;  // slower, longer, cleaner
  wan_b.rate = util::DataRate::mbps(18);
  wan_b.delay = util::millis(17.5);
  wan_b.loss_rate = 5e-5;
  net.connect(gw_s, pop_b, wan_b);
  net.connect(pop_b, gw_d, wan_b);

  sim::LinkConfig dlink;
  dlink.rate = util::DataRate::mbps(100);
  dlink.delay = util::millis(1);
  net.connect(pop_a, *sc.depots[0], dlink);
  net.connect(pop_b, *sc.depots[1], dlink);
  net.compute_routes();
  return sc;
}

struct Stripe {
  char path;  ///< 'A' or 'B'
  sim::PortNum sink_port;
  std::uint64_t bytes;
};

/// Run one independent LSL session per entry of `stripes`; returns
/// aggregate Mbit/s (total bytes / time to the LAST sink completion), or 0
/// on failure.
double run_sessions(std::uint64_t seed, const std::vector<Stripe>& stripes) {
  exp::Scenario sc = two_paths(seed);
  core::SessionDirectory dir;
  exp::Hosts hosts(sc, {});
  hosts.start_depots(sc.depot, &dir);
  std::vector<std::unique_ptr<core::SinkServer>> sinks;
  std::vector<std::unique_ptr<core::SourceApp>> sources;

  std::size_t completed = 0;
  util::SimTime last_done = 0;
  std::uint64_t total = 0;
  for (const Stripe& st : stripes) total += st.bytes;

  for (const Stripe& st : stripes) {
    core::SinkConfig scfg;
    scfg.expect_header = true;
    sinks.push_back(std::make_unique<core::SinkServer>(hosts.dst, st.sink_port,
                                                       scfg, &dir));
    sinks.back()->on_complete = [&](core::SinkApp& app) {
      ++completed;
      last_done = std::max(last_done, app.complete_time());
    };
  }

  util::SimTime start = 0;
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const Stripe& st = stripes[i];
    sim::Node* depot = sc.depots[st.path == 'A' ? 0 : 1];
    core::SourceConfig cfg;
    cfg.payload_bytes = st.bytes;
    cfg.use_header = true;
    util::Rng rng(seed + i);
    cfg.header.session = core::SessionId::generate(rng);
    cfg.header.payload_length = st.bytes;
    cfg.header.hops = {{depot->id(), exp::kDepotPort}};
    cfg.header.destination = {sc.dst->id(), st.sink_port};
    sources.push_back(std::make_unique<core::SourceApp>(
        hosts.src, sim::Endpoint{depot->id(), exp::kDepotPort}, cfg, &dir));
    sources.back()->start();
    start = sources.back()->start_time();
  }

  auto& ev = sc.net->sim().events();
  while (completed < stripes.size() &&
         ev.now() <= 3600ll * util::kSecond && ev.step()) {
  }
  if (completed < stripes.size()) return 0.0;
  return util::throughput_mbps(total, last_done - start);
}

/// Direct TCP over the (routed) best path.
double run_direct(std::uint64_t seed, std::uint64_t bytes) {
  exp::Scenario sc = two_paths(seed);
  exp::Hosts hosts(sc, {});
  core::SinkConfig scfg;  // raw sink
  core::SinkServer sink(hosts.dst, kSinkA, scfg, nullptr);
  bool done = false;
  util::SimTime done_time = 0;
  sink.on_complete = [&](core::SinkApp& app) {
    done = true;
    done_time = app.complete_time();
  };
  core::SourceConfig cfg;
  cfg.payload_bytes = bytes;
  core::SourceApp src(hosts.src, sim::Endpoint{sc.dst->id(), kSinkA}, cfg,
                      nullptr);
  src.start();
  auto& ev = sc.net->sim().events();
  while (!done && ev.now() <= 3600ll * util::kSecond && ev.step()) {
  }
  return done ? util::throughput_mbps(bytes, done_time - src.start_time())
              : 0.0;
}

}  // namespace

int main() {
  const std::uint64_t bytes = 32 * util::kMiB;
  const std::size_t iters = lsl::bench::iterations(4);
  const std::uint64_t seed0 = lsl::bench::base_seed();

  util::RunningStats direct, via_a, via_b, stripe_even, stripe_weighted;

  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = seed0 + i;
    direct.add(run_direct(seed, bytes));
    via_a.add(run_sessions(seed, {{'A', kSinkA, bytes}}));
    via_b.add(run_sessions(seed, {{'B', kSinkB, bytes}}));
    stripe_even.add(run_sessions(seed, {{'A', kSinkA, bytes / 2},
                                       {'B', kSinkB, bytes - bytes / 2}}));
    // Rate-weighted split using the single-path measurements so far — the
    // decision an NWS-informed splitter would make.
    const double ra = via_a.mean(), rb = via_b.mean();
    const double frac = ra + rb > 0 ? ra / (ra + rb) : 0.5;
    const auto ba =
        static_cast<std::uint64_t>(frac * static_cast<double>(bytes));
    stripe_weighted.add(run_sessions(
        seed, {{'A', kSinkA, ba}, {'B', kSinkB, bytes - ba}}));
  }

  util::Table t("Extension: multipath striped sessions (32MB, two disjoint "
                "WAN paths)",
                {"configuration", "mbps", "sd"});
  t.add_row({"direct TCP (best path)", util::Cell(direct.mean(), 2),
             util::Cell(direct.stddev(), 2)});
  t.add_row({"LSL via path A depot", util::Cell(via_a.mean(), 2),
             util::Cell(via_a.stddev(), 2)});
  t.add_row({"LSL via path B depot", util::Cell(via_b.mean(), 2),
             util::Cell(via_b.stddev(), 2)});
  t.add_row({"LSL multipath 50/50", util::Cell(stripe_even.mean(), 2),
             util::Cell(stripe_even.stddev(), 2)});
  t.add_row({"LSL multipath rate-weighted",
             util::Cell(stripe_weighted.mean(), 2),
             util::Cell(stripe_weighted.stddev(), 2)});
  lsl::bench::emit(t, "abl_multipath");

  // Striped legs: ONE session over N lanes of a 4-chain braid (src/stripe),
  // not the N cascaded sessions above — the lanes share a session id, a v3
  // wire header maps them back, and the sink reassembles the merged stream.
  util::Table ts("Extension: striped sessions over a 4-chain braid (32MB)",
                 {"configuration", "mbps", "sd"});
  const auto add_striped = [&](const std::string& name,
                               std::uint16_t stripes, std::uint8_t red,
                               bool weighted) {
    util::RunningStats s;
    for (std::size_t i = 0; i < iters; ++i) {
      exp::StripedParams p;
      p.paths = 4;
      p.stripes = stripes;
      p.redundancy = red;
      p.weighted = weighted;
      p.bytes = bytes;
      p.seed = seed0 + i;
      const exp::StripedResult r = exp::run_striped(p);
      if (r.verified) s.add(r.mbps);
    }
    ts.add_row({name, util::Cell(s.mean(), 2), util::Cell(s.stddev(), 2)});
  };
  for (std::uint16_t n = 1; n <= 4; ++n) {
    add_striped("striped x" + std::to_string(n), n, 0, false);
  }
  add_striped("striped x4 weighted", 4, 0, true);
  add_striped("striped x4 redundancy 1", 4, 1, false);
  lsl::bench::emit(ts, "abl_multipath_striped");
  return 0;
}
