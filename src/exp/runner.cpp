#include "exp/runner.hpp"

#include <string>

#include "lsl/directory.hpp"
#include "lsl/session_id.hpp"
#include "tcp/stack.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::exp {

TransferResult run_transfer(const ScenarioBuilder& build,
                            const RunConfig& cfg) {
  TransferResult res;
  res.bytes = cfg.bytes;

  Scenario sc = build(cfg.seed);
  sim::Network& net = *sc.net;
  LSL_PRECONDITION(cfg.mode != Mode::kLsl || !sc.depots.empty(),
                   "run_transfer: LSL mode needs at least one depot");

  tcp::TcpConfig tcpc = cfg.tcp;
  tcpc.carry_data = cfg.carry_data;

  // Metric bundles, declared before the stacks so they outlive every socket
  // holding a pointer to them.
  std::vector<std::unique_ptr<metrics::TcpConnMetrics>> tcp_bundles;
  // Sending sockets, in path order, for stats collection.
  std::vector<tcp::TcpSocket*> senders;
  auto instrument = [&](tcp::TcpSocket* s, const std::string& label) {
    senders.push_back(s);
    if (cfg.metrics) {
      tcp_bundles.push_back(
          std::make_unique<metrics::TcpConnMetrics>(*cfg.metrics,
                                                    "tcp." + label));
      s->set_metrics(tcp_bundles.back().get());
    }
    if (cfg.capture_traces) {
      auto rec = std::make_unique<trace::TraceRecorder>(label);
      rec->attach(s);
      res.traces.push_back(std::move(rec));
    }
  };

  core::SessionDirectory dir;
  core::SessionDirectory* dirp = cfg.carry_data ? nullptr : &dir;
  Hosts hosts(sc, tcpc);

  bool done = false;
  util::SimTime done_time = 0;
  bool verified = true;

  // --- Receiving side --------------------------------------------------------
  std::unique_ptr<core::SinkServer> sink_server;
  std::unique_ptr<core::ParallelSinkServer> parallel_sink;
  if (cfg.mode == Mode::kParallelTcp) {
    parallel_sink = std::make_unique<core::ParallelSinkServer>(
        hosts.dst, kSinkPort, cfg.parallel_streams);
    parallel_sink->on_complete = [&] {
      done = true;
      done_time = parallel_sink->complete_time();
    };
  } else {
    core::SinkConfig sink_cfg;
    sink_cfg.expect_header = (cfg.mode == Mode::kLsl);
    sink_cfg.verify_payload = cfg.carry_data;
    sink_cfg.payload_seed = cfg.seed ^ 0x5157c0debeefull;
    sink_server = std::make_unique<core::SinkServer>(hosts.dst, kSinkPort,
                                                     sink_cfg, dirp);
    sink_server->on_complete = [&](core::SinkApp& app) {
      done = true;
      done_time = app.complete_time();
      verified = !cfg.carry_data || app.verified();
    };
  }

  // --- Depots (LSL mode) -----------------------------------------------------
  if (cfg.mode == Mode::kLsl) {
    hosts.start_depots(cfg.depot_override.value_or(sc.depot), dirp,
                       cfg.metrics);
    for (std::size_t i = 0; i < hosts.depots.size(); ++i) {
      // Depot i's downstream connection is sublink i+2 of the cascade.
      hosts.depots[i]->on_downstream_open = [&instrument,
                                             i](tcp::TcpSocket* s) {
        instrument(s, "sublink" + std::to_string(i + 2));
      };
    }
  }

  // --- Sending side ----------------------------------------------------------
  std::unique_ptr<core::SourceApp> source;
  std::unique_ptr<core::ParallelSource> parallel_source;
  util::SimTime start_time = 0;

  if (cfg.mode == Mode::kParallelTcp) {
    parallel_source = std::make_unique<core::ParallelSource>(
        hosts.src, sim::Endpoint{sc.dst->id(), kSinkPort}, cfg.bytes,
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
      for (sim::Node* d : sc.depots) {
        scfg.header.hops.push_back({d->id(), kDepotPort});
      }
      scfg.header.destination = {sc.dst->id(), kSinkPort};
      first_hop = {sc.depots.front()->id(), kDepotPort};
    }
    source = std::make_unique<core::SourceApp>(hosts.src, first_hop, scfg,
                                               dirp);
  }

  // --- Run -------------------------------------------------------------------
  sc.start_cross_traffic();
  if (source) {
    source->start();
    start_time = source->start_time();
    // Nothing has reached a depot yet, so the source's connection is the
    // first sender and the first trace.
    instrument(source->socket(),
               cfg.mode == Mode::kLsl ? "sublink1" : "direct");
  } else {
    parallel_source->start();
    start_time = parallel_source->start_time();
  }

  auto& ev = net.sim().events();
  while (!done && ev.now() <= kRunDeadline && ev.step()) {
  }
  sc.stop_cross_traffic();

  res.completed = done;
  if (done) {
    res.seconds = util::to_seconds(done_time - start_time);
    res.mbps = util::throughput_mbps(cfg.bytes, done_time - start_time);
    res.verified = verified;
  } else {
    LSL_LOG_WARN("run_transfer(%s): transfer did not complete (%llu bytes)",
                 sc.name.c_str(),
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

TransferResult run_transfer(const PathParams& path, const RunConfig& cfg) {
  return run_transfer(
      [&path](std::uint64_t seed) { return build_scenario(path, seed); }, cfg);
}

std::vector<TransferResult> run_many(const ScenarioBuilder& build,
                                     const RunConfig& cfg,
                                     std::size_t iterations) {
  std::vector<TransferResult> out;
  out.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    RunConfig c = cfg;
    c.seed = cfg.seed + i;
    out.push_back(run_transfer(build, c));
  }
  return out;
}

std::vector<TransferResult> run_many(const PathParams& path,
                                     const RunConfig& cfg,
                                     std::size_t iterations) {
  return run_many(
      [&path](std::uint64_t seed) { return build_scenario(path, seed); }, cfg,
      iterations);
}

double mean_mbps(const std::vector<TransferResult>& results) {
  util::RunningStats s;
  for (const auto& r : results) {
    if (r.completed) s.add(r.mbps);
  }
  return s.mean();
}

}  // namespace lsl::exp
