// The paper's measurement configurations as simulated topologies.
//
// Every experiment in the paper runs over one of four wide-area paths
// (Figure 2 shape): a campus source host behind an access link, one or two
// Abilene-like backbone segments meeting at an intermediate POP, a campus
// destination host, and a depot host attached to the POP by a short link so
// that "the latency being added should be minimal" (§IV.A):
//
//   src --access-- gw_src --wan1-- pop --wan2-- gw_dst --access-- dst
//                                   |
//                                 depot
//
// Link rates, delays and loss rates are calibrated so the *direct* TCP
// path reproduces the paper's observed end-to-end RTT and throughput; the
// LSL numbers are then whatever the protocol actually achieves — that is
// the reproduction. Loss uses i.i.d. Bernoulli on the WAN segments (random
// background loss on a shared backbone) and optionally a Gilbert–Elliott
// bursty model on a wireless last hop (Case 3). On/off UDP cross-traffic
// across the shared segments supplies the queueing variance real traces
// show.
//
// The N-depot chain generalizes the single-depot setup: a source and sink
// joined by N+1 WAN segments with a depot at each junction, holding the
// *total* path delay and loss constant while varying how many times the
// path is articulated. It answers the design question the paper leaves
// open: how the LSL effect scales with the number of cascaded TCP
// connections, and where per-depot costs (setup latency, copy rate) eat
// the gains.
//
// The braid is the striping topology: N disjoint single-depot chains
// between one source and one sink, for one session striped across them.
//
// Every simulated run stands on a built Scenario: Hosts puts a TCP stack
// on each of its hosts and a DepotApp on each depot, and
// seed_path_database fills the route selector's forecasts from the links
// the scenario's network routes each sublink over.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lsl/depot.hpp"
#include "lsl/directory.hpp"
#include "lsl/selector.hpp"
#include "metrics/instruments.hpp"
#include "sim/cross_traffic.hpp"
#include "sim/network.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl::exp {

/// The port every simulated sink listens on.
inline constexpr sim::PortNum kSinkPort = 5001;
/// The port every simulated depot listens on.
inline constexpr sim::PortNum kDepotPort = 4000;

/// Hard simulated-time ceiling of every run; a run that exceeds it reports
/// failure.
inline constexpr util::SimDuration kRunDeadline = 4 * 3600 * util::kSecond;

/// Parameters of one measurement path.
struct PathParams {
  std::string name = "unnamed";

  // Campus access links (both ends unless wireless_dst).
  util::DataRate access_rate = util::DataRate::mbps(100);
  util::SimDuration access_delay = util::millis(0.5);

  // Backbone segments: gw_src <-> pop <-> gw_dst.
  util::DataRate wan_rate = util::DataRate::mbps(20);
  util::SimDuration wan1_delay = util::millis(14.5);
  util::SimDuration wan2_delay = util::millis(13.0);
  double wan1_loss = 1.4e-4;  ///< per-packet, each direction
  double wan2_loss = 1.4e-4;
  std::size_t wan_queue_bytes = 256 * util::kKiB;
  util::SimDuration wan_jitter = util::micros(200);

  // Depot attachment.
  util::DataRate depot_link_rate = util::DataRate::mbps(100);
  util::SimDuration depot_link_delay = util::millis(1.5);

  // Depot host capability. The paper's depots are unprivileged processes on
  // shared general-purpose machines "not designed to forward traffic
  // efficiently" (§VII); relay_rate is the end-to-end rate such a host can
  // sustain through recv()+copy+send(), and relay_buffer is the "small,
  // short-lived" session buffer.
  util::DataRate depot_relay_rate = util::DataRate::mbps(100);
  std::uint64_t depot_relay_buffer = util::kMiB;
  util::SimDuration depot_wakeup = util::micros(200);
  util::SimDuration depot_setup = util::millis(140);

  // Optional 802.11b-style wireless last hop replacing dst's access link.
  bool wireless_dst = false;
  util::DataRate wireless_rate = util::DataRate::mbps(6);
  util::SimDuration wireless_delay = util::millis(2.0);
  double wireless_ge_good_to_bad = 2e-4;
  double wireless_ge_bad_to_good = 0.4;
  double wireless_ge_loss_bad = 0.2;
  double wireless_ge_loss_good = 1e-5;

  // Background cross-traffic over each WAN segment (0 disables).
  double cross_traffic_mbps = 0.0;

  /// Warmed route-metric ssthresh applied to every connection in this
  /// scenario (Linux 2.4 cached ssthresh per destination; the paper's
  /// 10-120 iterations per configuration ran over warmed routes).
  std::uint64_t initial_ssthresh = 112 * util::kKiB;
};

/// Parameters of an N-depot chain.
struct ChainParams {
  std::size_t depots = 1;  ///< cascaded depots (0 = the bare backbone)

  /// Total one-way propagation delay of the backbone, split evenly across
  /// the depots+1 segments.
  util::SimDuration total_one_way_delay = util::millis(28);
  /// Total one-way per-packet loss probability of the backbone, split
  /// evenly across the segments.
  double total_loss = 2.8e-4;
  util::DataRate wan_rate = util::DataRate::mbps(40);
  std::size_t wan_queue_bytes = 256 * util::kKiB;
  util::SimDuration access_delay = util::millis(0.5);

  core::DepotConfig depot{.buffer_bytes = util::kMiB,
                          .copy_rate = util::DataRate::mbps(60),
                          .session_setup_latency = util::millis(40)};
};

/// A constructed topology ready to host transport stacks.
struct Scenario {
  std::string name;
  std::unique_ptr<sim::Network> net;
  sim::Node* src = nullptr;
  sim::Node* dst = nullptr;
  /// Depot hosts in path order: one on the paper's paths, N on a chain.
  std::vector<sim::Node*> depots;
  /// Tuning every depot of a run starts from.
  core::DepotConfig depot;
  /// Warmed ssthresh for every connection (see PathParams).
  std::uint64_t initial_ssthresh = 0;
  std::vector<std::unique_ptr<sim::OnOffUdpSource>> cross_sources;

  /// Start all configured cross-traffic sources.
  void start_cross_traffic();
  /// Stop them (lets the event queue drain after a transfer).
  void stop_cross_traffic();
};

/// Build the topology for `p`, seeding all simulation randomness from
/// `seed` (distinct seeds give statistically independent iterations).
Scenario build_scenario(const PathParams& p, std::uint64_t seed);

/// Build the N-depot chain for `p`: src and dst behind access links, and
/// junction routers J1..JN along the backbone, each with a depot host
/// ("depot1".."depotN") on a short link. Every connection starts from a
/// 64 KiB warmed ssthresh.
Scenario build_chain(const ChainParams& p, std::uint64_t seed);

/// Build the striping braid: src and dst behind fat access links, joined
/// by `paths` disjoint two-segment backbone paths through junction routers
/// J1..JN, each with a depot host ("depot1".."depotN") on a short link.
/// Every connection starts from a 64 KiB warmed ssthresh.
Scenario build_braid(std::size_t paths, std::uint64_t seed);

/// Builds a run's topology from the run's seed.
using ScenarioBuilder = std::function<Scenario(std::uint64_t seed)>;

/// Case 1 (§IV.A, Figures 3, 5, 6, 11–25): UCSB -> UIUC via a Denver depot.
/// Direct path: ~57 ms RTT, ~11 Mbit/s at 64 MB.
PathParams case1_ucsb_uiuc();

/// Case 2 (Figures 4, 7, 8, 26): UCSB -> UF via a Houston depot whose
/// access is load-delayed (~+20 ms on the sum of sublink RTTs).
/// Direct path: ~60 ms RTT, ~33 Mbit/s at 128 MB.
PathParams case2_ucsb_uf();

/// Case 3 (Figures 9, 10, 27): UTK -> UCSB with an 802.11b last hop and the
/// depot at the wired network edge near the client.
PathParams case3_utk_wireless();

/// Steady-state study (Figures 28, 29): UCSB -> OSU via Denver, transfers
/// up to 512 MB. Direct path: ~20 Mbit/s at 512 MB.
PathParams case_osu_steady();

/// The transport hosts of a built Scenario: a TCP stack on src, then dst,
/// then each depot in path order, and, once start_depots() runs, a
/// DepotApp on each depot. Must not outlive the Scenario.
struct Hosts {
  /// Stacks take `tcp`; a zero initial_ssthresh takes the scenario's.
  Hosts(Scenario& sc, const tcp::TcpConfig& tcp);

  /// Start a DepotApp tuned by `cfg` on kDepotPort of every depot. With
  /// `metrics`, depot i reports under `depot.<i>.*` (i from 1).
  void start_depots(core::DepotConfig cfg, core::SessionDirectory* dir,
                    metrics::Registry* metrics = nullptr);

  /// Retransmissions of every connection on every host.
  std::uint64_t retransmits() const;

  // Declared first, so each outlives the depot reporting into it.
  std::vector<std::unique_ptr<metrics::DepotMetrics>> depot_metrics;
  tcp::TcpStack src;
  tcp::TcpStack dst;
  std::vector<std::unique_ptr<tcp::TcpStack>> depot_stacks;
  std::vector<std::unique_ptr<core::DepotApp>> depots;
};

/// Seed `db` with each sublink that `candidates` name, once, from the links
/// `net` routes it over: RTT is the delay there and back, rate the
/// bottleneck link's, loss the sum of the links' (at least 1e-7). No
/// measurement noise, so route choice replays exactly.
void seed_path_database(core::PathDatabase& db, sim::Network& net,
                        const std::vector<core::CandidateRoute>& candidates);

}  // namespace lsl::exp
