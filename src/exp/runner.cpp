#include "exp/runner.hpp"

#include <cassert>

#include "lsl/directory.hpp"
#include "lsl/session_id.hpp"
#include "tcp/stack.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::exp {

namespace {
constexpr sim::PortNum kSinkPort = 5001;
constexpr sim::PortNum kDepotPort = 4000;
}  // namespace

TransferResult run_transfer(const PathParams& path, const RunConfig& cfg) {
  TransferResult res;
  res.bytes = cfg.bytes;

  Scenario sc = build_scenario(path, cfg.seed);
  sim::Network& net = *sc.net;

  tcp::TcpConfig tcpc = cfg.tcp;
  tcpc.carry_data = cfg.carry_data;
  if (tcpc.initial_ssthresh == 0) tcpc.initial_ssthresh = path.initial_ssthresh;

  // Metric bundles, declared before the stacks so they outlive every socket
  // holding a pointer to them.
  std::vector<std::unique_ptr<metrics::TcpConnMetrics>> tcp_bundles;
  std::unique_ptr<metrics::DepotMetrics> depot_bundle;
  auto meter_socket = [&](tcp::TcpSocket* s, const std::string& label) {
    if (!cfg.metrics) return;
    tcp_bundles.push_back(
        std::make_unique<metrics::TcpConnMetrics>(*cfg.metrics,
                                                  "tcp." + label));
    s->set_metrics(tcp_bundles.back().get());
  };

  tcp::TcpStack src_stack(net, *sc.src, tcpc);
  tcp::TcpStack dst_stack(net, *sc.dst, tcpc);
  tcp::TcpStack depot_stack(net, *sc.depot, tcpc);

  core::SessionDirectory dir;
  core::SessionDirectory* dirp = cfg.carry_data ? nullptr : &dir;

  bool done = false;
  util::SimTime done_time = 0;
  bool verified = true;

  // Sending sockets, in path order, for stats collection.
  std::vector<tcp::TcpSocket*> senders;

  // --- Receiving side --------------------------------------------------------
  std::unique_ptr<core::SinkServer> sink_server;
  std::unique_ptr<core::ParallelSinkServer> parallel_sink;
  if (cfg.mode == Mode::kParallelTcp) {
    parallel_sink = std::make_unique<core::ParallelSinkServer>(
        dst_stack, kSinkPort, cfg.parallel_streams);
    parallel_sink->on_complete = [&] {
      done = true;
      done_time = parallel_sink->complete_time();
    };
  } else {
    core::SinkConfig sink_cfg;
    sink_cfg.expect_header = (cfg.mode == Mode::kLsl);
    sink_cfg.verify_payload = cfg.carry_data;
    sink_cfg.payload_seed = cfg.seed ^ 0x5157c0debeefull;
    sink_server = std::make_unique<core::SinkServer>(dst_stack, kSinkPort,
                                                     sink_cfg, dirp);
    sink_server->on_complete = [&](core::SinkApp& app) {
      done = true;
      done_time = app.complete_time();
      verified = !cfg.carry_data || app.verified();
    };
  }

  // --- Depot (LSL mode) ------------------------------------------------------
  std::unique_ptr<core::DepotApp> depot_app;
  if (cfg.mode == Mode::kLsl) {
    core::DepotConfig dcfg;
    if (cfg.depot_override) {
      dcfg = *cfg.depot_override;
    } else {
      dcfg.buffer_bytes = path.depot_relay_buffer;
      dcfg.copy_rate = path.depot_relay_rate;
      dcfg.wakeup_latency = path.depot_wakeup;
      dcfg.session_setup_latency = path.depot_setup;
    }
    dcfg.port = kDepotPort;
    if (cfg.resume_grace > 0) dcfg.resume_grace = cfg.resume_grace;
    depot_app = std::make_unique<core::DepotApp>(depot_stack, dcfg, dirp);
    if (cfg.metrics) {
      depot_bundle =
          std::make_unique<metrics::DepotMetrics>(*cfg.metrics, "depot.1");
      depot_app->set_metrics(depot_bundle.get());
    }
    depot_app->on_downstream_open = [&](tcp::TcpSocket* s) {
      senders.push_back(s);
      meter_socket(s, "sublink2");
      if (cfg.capture_traces) {
        auto rec = std::make_unique<trace::TraceRecorder>("sublink2");
        rec->attach(s);
        res.traces.push_back(std::move(rec));
      }
    };
  }

  // --- Sending side ----------------------------------------------------------
  std::unique_ptr<core::SourceApp> source;
  std::unique_ptr<core::ParallelSource> parallel_source;
  util::SimTime start_time = 0;

  if (cfg.mode == Mode::kParallelTcp) {
    parallel_source = std::make_unique<core::ParallelSource>(
        src_stack, sim::Endpoint{sc.dst->id(), kSinkPort}, cfg.bytes,
        cfg.parallel_streams);
  } else {
    core::SourceConfig scfg;
    scfg.payload_bytes = cfg.bytes;
    scfg.payload_seed = cfg.seed ^ 0x5157c0debeefull;
    sim::Endpoint first_hop{sc.dst->id(), kSinkPort};
    if (cfg.mode == Mode::kLsl) {
      scfg.use_header = true;
      util::Rng id_rng(cfg.seed);
      scfg.header.session = core::SessionId::generate(id_rng);
      if (cfg.carry_data) scfg.header.flags |= core::kFlagDigestTrailer;
      scfg.header.payload_length = cfg.bytes;
      scfg.header.hops = {{sc.depot->id(), kDepotPort}};
      scfg.header.destination = {sc.dst->id(), kSinkPort};
      first_hop = {sc.depot->id(), kDepotPort};
    }
    source = std::make_unique<core::SourceApp>(src_stack, first_hop, scfg,
                                               dirp);
  }

  // --- Run -------------------------------------------------------------------
  sc.start_cross_traffic();
  if (source) {
    source->start();
    start_time = source->start_time();
    senders.insert(senders.begin(), source->socket());
    meter_socket(source->socket(),
                 cfg.mode == Mode::kLsl ? "sublink1" : "direct");
    if (cfg.capture_traces) {
      auto rec = std::make_unique<trace::TraceRecorder>(
          cfg.mode == Mode::kLsl ? "sublink1" : "direct");
      rec->attach(source->socket());
      res.traces.insert(res.traces.begin(), std::move(rec));
    }
  } else {
    parallel_source->start();
    start_time = parallel_source->start_time();
  }

  auto& ev = net.sim().events();
  while (!done && ev.now() <= cfg.deadline && ev.step()) {
  }
  sc.stop_cross_traffic();

  res.completed = done;
  if (done) {
    res.seconds = util::to_seconds(done_time - start_time);
    res.mbps = util::throughput_mbps(cfg.bytes, done_time - start_time);
    res.verified = verified;
  } else {
    LSL_LOG_WARN("run_transfer(%s): transfer did not complete (%llu bytes)",
                 path.name.c_str(),
                 static_cast<unsigned long long>(cfg.bytes));
    res.verified = false;
  }

  for (tcp::TcpSocket* s : senders) {
    res.retransmits += s->stats().retransmits;
    res.timeouts += s->stats().timeouts;
  }
  const sim::LinkStats link_totals = net.total_link_stats();
  res.drops_wire = link_totals.drops_wire;
  res.drops_queue = link_totals.drops_queue;
  res.events = ev.executed_count();
  for (const auto& rec : res.traces) {
    res.rtt_ms.push_back(trace::average_rtt_ms(*rec));
    res.retx_per_link.push_back(trace::retransmission_count(*rec));
    if (cfg.metrics) {
      trace::export_trace_metrics(*rec, *cfg.metrics,
                                  "trace." + rec->label());
    }
  }
  return res;
}

std::vector<TransferResult> run_many(const PathParams& path,
                                     const RunConfig& cfg,
                                     std::size_t iterations) {
  std::vector<TransferResult> out;
  out.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    RunConfig c = cfg;
    c.seed = cfg.seed + i;
    out.push_back(run_transfer(path, c));
  }
  return out;
}

double mean_mbps(const std::vector<TransferResult>& results) {
  util::RunningStats s;
  for (const auto& r : results) {
    if (r.completed) s.add(r.mbps);
  }
  return s.mean();
}

}  // namespace lsl::exp
