#include "exp/scenarios.hpp"

#include <algorithm>
#include <limits>

namespace lsl::exp {

void Scenario::start_cross_traffic() {
  for (auto& s : cross_sources) s->start();
}

void Scenario::stop_cross_traffic() {
  for (auto& s : cross_sources) s->stop();
}

Scenario build_scenario(const PathParams& p, std::uint64_t seed) {
  Scenario sc;
  sc.name = p.name;
  sc.net = std::make_unique<sim::Network>(seed);
  sim::Network& net = *sc.net;

  sim::Node& src = net.add_host("src");
  sim::Node& gw_src = net.add_router("gw_src");
  sim::Node& pop = net.add_router("pop");
  sim::Node& gw_dst = net.add_router("gw_dst");
  sim::Node& dst = net.add_host("dst");
  sim::Node& depot = net.add_host("depot");

  sc.src = &src;
  sc.dst = &dst;
  sc.depots = {&depot};
  sc.depot.buffer_bytes = p.depot_relay_buffer;
  sc.depot.copy_rate = p.depot_relay_rate;
  sc.depot.wakeup_latency = p.depot_wakeup;
  sc.depot.session_setup_latency = p.depot_setup;
  sc.initial_ssthresh = p.initial_ssthresh;

  sim::LinkConfig access;
  access.rate = p.access_rate;
  access.delay = p.access_delay;
  access.queue_bytes = 512 * util::kKiB;
  net.connect(src, gw_src, access);

  sim::LinkConfig wan1;
  wan1.rate = p.wan_rate;
  wan1.delay = p.wan1_delay;
  wan1.loss_rate = p.wan1_loss;
  wan1.queue_bytes = p.wan_queue_bytes;
  wan1.jitter = p.wan_jitter;
  net.connect(gw_src, pop, wan1);

  sim::LinkConfig wan2 = wan1;
  wan2.delay = p.wan2_delay;
  wan2.loss_rate = p.wan2_loss;
  net.connect(pop, gw_dst, wan2);

  if (p.wireless_dst) {
    sim::LinkConfig wl;
    wl.rate = p.wireless_rate;
    wl.delay = p.wireless_delay;
    wl.queue_bytes = 48 * util::kKiB;
    wl.gilbert_elliott = true;
    wl.ge_good_to_bad = p.wireless_ge_good_to_bad;
    wl.ge_bad_to_good = p.wireless_ge_bad_to_good;
    wl.ge_loss_bad = p.wireless_ge_loss_bad;
    wl.ge_loss_good = p.wireless_ge_loss_good;
    net.connect(gw_dst, dst, wl);
  } else {
    net.connect(gw_dst, dst, access);
  }

  sim::LinkConfig dlink;
  dlink.rate = p.depot_link_rate;
  dlink.delay = p.depot_link_delay;
  dlink.queue_bytes = 512 * util::kKiB;
  net.connect(pop, depot, dlink);

  if (p.cross_traffic_mbps > 0.0) {
    // One on/off source per WAN segment direction that the transfer shares:
    // gw_src -> pop and pop -> gw_dst (forward data path), plus reverse-path
    // sources to perturb the ACK stream.
    sim::Node& xa = net.add_host("xsrc_a");
    sim::Node& xb = net.add_host("xsink_b");
    sim::LinkConfig xlink;
    xlink.rate = util::DataRate::gbps(1);
    xlink.delay = util::micros(100);
    net.connect(xa, gw_src, xlink);
    net.connect(xb, gw_dst, xlink);

    sim::CrossTrafficConfig ct;
    ct.peak_rate = util::DataRate::mbps(p.cross_traffic_mbps * 3.0);
    ct.mean_on = util::millis(150);
    ct.mean_off = util::millis(300);

    sc.cross_sources.push_back(
        std::make_unique<sim::OnOffUdpSource>(net, xa, xb.id(), ct));
    sc.cross_sources.push_back(
        std::make_unique<sim::OnOffUdpSource>(net, xb, xa.id(), ct));
  }

  net.compute_routes();
  return sc;
}

Scenario build_chain(const ChainParams& p, std::uint64_t seed) {
  Scenario sc;
  sc.name = "chain:" + std::to_string(p.depots);
  sc.net = std::make_unique<sim::Network>(seed);
  sim::Network& net = *sc.net;
  sc.depot = p.depot;
  sc.initial_ssthresh = 64 * util::kKiB;

  sim::Node& src = net.add_host("src");
  sim::Node& dst = net.add_host("dst");
  sim::Node& gw_a = net.add_router("gw_a");
  sim::Node& gw_b = net.add_router("gw_b");
  sc.src = &src;
  sc.dst = &dst;

  sim::LinkConfig access;
  access.rate = util::DataRate::mbps(100);
  access.delay = p.access_delay;
  access.queue_bytes = 512 * util::kKiB;
  net.connect(src, gw_a, access);
  net.connect(gw_b, dst, access);

  const std::size_t segments = p.depots + 1;
  sim::LinkConfig seg;
  seg.rate = p.wan_rate;
  seg.delay = p.total_one_way_delay / static_cast<util::SimDuration>(segments);
  seg.loss_rate = p.total_loss / static_cast<double>(segments);
  seg.queue_bytes = p.wan_queue_bytes;

  sim::Node* prev = &gw_a;
  for (std::size_t i = 0; i < p.depots; ++i) {
    // Appended, not "J" + std::to_string(...): g++ 12 at -O3 warns a
    // false -Wrestrict on the one-character prefix insert.
    std::string router = "J";
    router += std::to_string(i + 1);
    sim::Node& j = net.add_router(router);
    net.connect(*prev, j, seg);
    sim::Node& d = net.add_host("depot" + std::to_string(i + 1));
    sim::LinkConfig dlink;
    dlink.rate = util::DataRate::mbps(100);
    dlink.delay = util::millis(0.5);
    dlink.queue_bytes = 512 * util::kKiB;
    net.connect(j, d, dlink);
    sc.depots.push_back(&d);
    prev = &j;
  }
  net.connect(*prev, gw_b, seg);
  net.compute_routes();
  return sc;
}

Scenario build_braid(std::size_t paths, std::uint64_t seed) {
  Scenario sc;
  sc.name = "braid:" + std::to_string(paths);
  sc.net = std::make_unique<sim::Network>(seed);
  sim::Network& net = *sc.net;
  sc.depot = {.buffer_bytes = util::kMiB,
              .copy_rate = util::DataRate::mbps(60),
              .session_setup_latency = util::millis(40)};
  sc.initial_ssthresh = 64 * util::kKiB;

  sim::Node& src = net.add_host("src");
  sim::Node& dst = net.add_host("dst");
  sim::Node& gw_a = net.add_router("gw_a");
  sim::Node& gw_b = net.add_router("gw_b");
  sc.src = &src;
  sc.dst = &dst;

  // Fat access links: the braid's aggregate must be WAN-limited, or the
  // multipath sweep would just measure the shared edge.
  sim::LinkConfig access;
  access.rate = util::DataRate::mbps(1000);
  access.delay = util::millis(0.5);
  access.queue_bytes = util::kMiB;
  net.connect(src, gw_a, access);
  net.connect(gw_b, dst, access);

  // Each path: 40 Mbit/s, 28 ms one way and 2.8e-4 loss, split over its
  // two segments.
  sim::LinkConfig seg;
  seg.rate = util::DataRate::mbps(40);
  seg.delay = util::millis(28) / 2;
  seg.loss_rate = 2.8e-4 / 2.0;
  seg.queue_bytes = 256 * util::kKiB;

  sim::LinkConfig dlink;
  dlink.rate = util::DataRate::mbps(1000);
  dlink.delay = util::millis(0.5);
  dlink.queue_bytes = util::kMiB;

  for (std::size_t i = 0; i < paths; ++i) {
    // Appended, not "J" + std::to_string(...): g++ 12 at -O3 warns a
    // false -Wrestrict on the one-character prefix insert.
    std::string router = "J";
    router += std::to_string(i + 1);
    sim::Node& j = net.add_router(router);
    net.connect(gw_a, j, seg);
    net.connect(j, gw_b, seg);
    sim::Node& d = net.add_host("depot" + std::to_string(i + 1));
    net.connect(j, d, dlink);
    sc.depots.push_back(&d);
  }
  net.compute_routes();
  return sc;
}

namespace {

/// `tcp` with a zero initial_ssthresh replaced by the scenario's.
tcp::TcpConfig warmed(tcp::TcpConfig tcp, const Scenario& sc) {
  if (tcp.initial_ssthresh == 0) tcp.initial_ssthresh = sc.initial_ssthresh;
  return tcp;
}

}  // namespace

Hosts::Hosts(Scenario& sc, const tcp::TcpConfig& tcp)
    : src(*sc.net, *sc.src, warmed(tcp, sc)),
      dst(*sc.net, *sc.dst, src.default_config()) {
  for (sim::Node* d : sc.depots) {
    depot_stacks.push_back(
        std::make_unique<tcp::TcpStack>(*sc.net, *d, src.default_config()));
  }
}

void Hosts::start_depots(core::DepotConfig cfg, core::SessionDirectory* dir,
                         metrics::Registry* metrics) {
  cfg.port = kDepotPort;
  for (std::size_t i = 0; i < depot_stacks.size(); ++i) {
    auto app = std::make_unique<core::DepotApp>(*depot_stacks[i], cfg, dir);
    if (metrics != nullptr) {
      depot_metrics.push_back(std::make_unique<metrics::DepotMetrics>(
          *metrics, "depot." + std::to_string(i + 1)));
      app->set_metrics(depot_metrics.back().get());
    }
    depots.push_back(std::move(app));
  }
}

std::uint64_t Hosts::retransmits() const {
  std::uint64_t n = 0;
  const auto count = [&n](const tcp::TcpSocket& s) {
    n += s.stats().retransmits;
  };
  src.for_each_connection(count);
  dst.for_each_connection(count);
  for (const auto& s : depot_stacks) s->for_each_connection(count);
  return n;
}

void seed_path_database(core::PathDatabase& db, sim::Network& net,
                        const std::vector<core::CandidateRoute>& candidates) {
  for (const core::CandidateRoute& route : candidates) {
    for (std::size_t k = 0; k + 1 < route.waypoints.size(); ++k) {
      const std::string& from = route.waypoints[k];
      const std::string& to = route.waypoints[k + 1];
      if (db.knows(from, to)) continue;
      const sim::NodeId a = net.find_node(from)->id();
      const sim::NodeId b = net.find_node(to)->id();
      util::SimDuration rtt = 0;
      for (const sim::Link* l : net.route(b, a)) rtt += l->config().delay;
      double rate_mbps = std::numeric_limits<double>::infinity();
      double loss = 0.0;
      for (const sim::Link* l : net.route(a, b)) {
        rtt += l->config().delay;
        rate_mbps = std::min(rate_mbps, l->config().rate.as_mbps());
        loss += l->config().loss_rate;
      }
      db.observe_rtt_ms(from, to, util::to_millis(rtt));
      db.observe_bandwidth_mbps(from, to, rate_mbps);
      db.observe_loss_rate(from, to, std::max(loss, 1e-7));
    }
  }
}

PathParams case1_ucsb_uiuc() {
  PathParams p;
  p.name = "case1_ucsb_uiuc_via_denver";
  // Moderately provisioned path: the direct flow is loss/RTT-limited well
  // below the segment rate (so its RTT stays near propagation), while LSL's
  // faster sublink control loops push toward the segment rate.
  p.wan_rate = util::DataRate::mbps(40);
  p.wan1_delay = util::millis(14.5);  // UCSB <-> Denver POP
  p.wan2_delay = util::millis(13.0);  // Denver POP <-> UIUC
  p.wan1_loss = 1.4e-4;
  p.wan2_loss = 1.4e-4;
  p.wan_queue_bytes = 256 * util::kKiB;
  p.depot_link_delay = util::millis(1.5);
  // A loaded shared host relaying through user space in 2001.
  p.depot_relay_rate = util::DataRate::mbps(18);
  p.depot_relay_buffer = util::kMiB;
  p.initial_ssthresh = 64 * util::kKiB;
  p.cross_traffic_mbps = 2.0;
  return p;
}

PathParams case2_ucsb_uf() {
  PathParams p;
  p.name = "case2_ucsb_uf_via_houston";
  p.wan_rate = util::DataRate::mbps(80);
  p.wan1_delay = util::millis(14.5);  // UCSB <-> Houston POP
  p.wan2_delay = util::millis(14.5);  // Houston POP <-> UF
  p.wan1_loss = 1.3e-5;
  p.wan2_loss = 1.3e-5;
  p.wan_queue_bytes = 512 * util::kKiB;
  p.depot_relay_rate = util::DataRate::mbps(55);
  p.depot_relay_buffer = 2 * util::kMiB;
  p.initial_ssthresh = 160 * util::kKiB;
  // The paper attributes ~20 ms of extra sublink RTT to load at/near the
  // Houston depot (§IV.A footnote): a slower, busier depot attachment.
  p.depot_link_delay = util::millis(5.0);
  p.cross_traffic_mbps = 4.0;
  return p;
}

PathParams case3_utk_wireless() {
  PathParams p;
  p.name = "case3_utk_ucsb_wireless";
  // UTK -> UCSB wired path is long and loaded; the depot sits at the UCSB
  // campus edge, so wan1 carries nearly all of the wired latency and wan2
  // is the short campus segment ahead of the wireless hop.
  p.wan_rate = util::DataRate::mbps(30);
  p.wan1_delay = util::millis(48.0);
  p.wan2_delay = util::millis(1.0);
  p.wan1_loss = 7e-4;
  p.wan2_loss = 1e-5;
  p.depot_link_delay = util::millis(0.5);
  p.depot_relay_rate = util::DataRate::mbps(60);
  p.depot_setup = util::millis(40);  // lightly loaded campus-edge depot
  p.initial_ssthresh = 48 * util::kKiB;
  p.wireless_dst = true;
  p.cross_traffic_mbps = 2.0;
  return p;
}

PathParams case_osu_steady() {
  PathParams p;
  p.name = "case_osu_steady_via_denver";
  p.wan_rate = util::DataRate::mbps(45);
  p.wan1_delay = util::millis(14.0);  // UCSB <-> Denver POP
  p.wan2_delay = util::millis(12.5);  // Denver POP <-> OSU
  p.wan1_loss = 4e-5;
  p.wan2_loss = 4e-5;
  p.depot_link_delay = util::millis(1.5);
  p.depot_relay_rate = util::DataRate::mbps(28);
  p.initial_ssthresh = 64 * util::kKiB;
  p.cross_traffic_mbps = 2.0;
  return p;
}

}  // namespace lsl::exp
