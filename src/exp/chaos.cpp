#include "exp/chaos.hpp"

#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "fault/fault_metrics.hpp"
#include "fault/injector.hpp"
#include "health/health_metrics.hpp"
#include "lsl/apps.hpp"
#include "lsl/directory.hpp"
#include "lsl/selector.hpp"
#include "lsl/session_id.hpp"
#include "sim/network.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lsl::exp {

namespace {

/// Every order-preserving non-empty subset of the depot chain is a
/// candidate loose source route (capped: beyond 8 depots only the full
/// chain is offered — 2^N candidates would swamp the selector).
std::vector<core::CandidateRoute> chain_candidates(std::size_t depots) {
  std::vector<core::CandidateRoute> out;
  // Past the cap the one mask 0 stands for the full chain.
  const bool capped = depots > 8;
  const std::uint32_t last = capped ? 0 : (1u << depots) - 1;
  for (std::uint32_t mask = capped ? 0 : 1; mask <= last; ++mask) {
    core::CandidateRoute r{{"src"}};
    for (std::size_t i = 0; i < depots; ++i) {
      if (capped || (mask & (1u << i)) != 0) {
        r.waypoints.push_back("depot" + std::to_string(i + 1));
      }
    }
    r.waypoints.push_back("dst");
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

ChaosResult run_chaos(const ChaosParams& params) {
  ChaosResult res;
  const std::uint64_t bytes = params.bytes;
  const std::uint64_t seed = params.seed;

  Scenario sc = build_chain(params.chain, seed);
  sim::Network& net = *sc.net;

  core::SessionDirectory dir;
  // Chaos transfers always carry real bytes: end-to-end verification (the
  // recovery trigger for corruption) needs actual content on the wire.
  Hosts hosts(sc, {.carry_data = true});

  // --- Depots + instruments ---------------------------------------------
  std::optional<fault::FaultMetrics> fm;
  if (params.metrics != nullptr) fm.emplace(*params.metrics);
  hosts.start_depots(sc.depot, &dir, params.metrics);

  fault::FaultInjector injector(net, params.plan,
                                fm ? &*fm : nullptr);
  for (std::size_t i = 0; i < hosts.depots.size(); ++i) {
    injector.register_depot(sc.depots[i]->name(), hosts.depots[i].get());
  }

  // The source-side corrupt fault is applied on the *first* attempt only:
  // a retransfer must be clean or recovery could never converge.
  std::optional<std::uint64_t> corrupt_at;
  for (const fault::FaultEvent& e : params.plan.events) {
    if (e.kind == fault::FaultKind::kCorrupt) corrupt_at = e.at_bytes;
  }

  // --- Policy ------------------------------------------------------------
  std::vector<core::CandidateRoute> candidates =
      chain_candidates(sc.depots.size());
  core::PathDatabase db;
  seed_path_database(db, net, candidates);
  core::RouteSelector selector(
      db, 1448.0, util::to_seconds(sc.depot.session_setup_latency));
  // The policy's jitter stream is derived from the run seed, split so it
  // never aliases the simulator's own RNG consumers.
  fault::RoutePolicy policy(params.retry, seed ^ 0x9e3779b97f4a7c15ull,
                            std::move(candidates), &selector);

  // --- Health plane (fully inert when disabled: no board, no events, no
  // instruments — same-seed exports stay byte-identical) -------------------
  const bool health_on = params.health.enabled;
  std::optional<health::HealthBoard> board;
  std::optional<health::HealthMetrics> hm;
  std::optional<core::SessionLedger> ledger;
  if (health_on) {
    board.emplace(params.health.board);
    if (params.metrics != nullptr) {
      hm.emplace(*params.metrics);
      board->set_metrics(&*hm);
    }
    selector.set_health(&*board);
    ledger.emplace(seed);
  }

  // --- Sink --------------------------------------------------------------
  bool sink_done = false;
  bool sink_verified = false;
  util::SimTime sink_time = 0;
  core::SessionId completed_session;  // health mode: ledger-verdicted id
  core::SinkConfig sink_cfg;
  sink_cfg.expect_header = true;
  sink_cfg.verify_payload = true;
  sink_cfg.payload_seed = seed;
  if (health_on) sink_cfg.ledger = &*ledger;
  core::SinkServer sink(hosts.dst, kSinkPort, sink_cfg, &dir);
  if (health_on) {
    // Completion is a *stream* property once connections can hand the
    // session to each other: the ledger verdicts when the stitched
    // frontier reaches the total, whichever connections carried it.
    ledger->on_session_complete = [&](const core::SessionId& id,
                                      const core::SessionLedger::Session& s) {
      sink_done = true;
      sink_time = s.complete_time;
      completed_session = id;
    };
  } else {
    sink.on_complete = [&](core::SinkApp& app) {
      if (app.payload_received() != bytes) return;  // truncated husk
      sink_done = true;
      sink_verified = app.verified();
      sink_time = app.complete_time();
    };
  }

  // --- Attempt loop ------------------------------------------------------
  auto& ev = net.sim().events();
  injector.arm();

  util::Rng id_rng(seed);
  std::vector<std::unique_ptr<core::SourceApp>> sources;
  std::vector<std::string> route;  // depot names of the current attempt
  for (const sim::Node* d : sc.depots) route.push_back(d->name());
  util::SimTime first_start = -1;
  util::SimTime first_failure = -1;
  bool first_attempt = true;
  // The verdict on the in-session loss that ended the current attempt.
  std::optional<fault::Verdict> session_verdict;

  // --- Health sampling + proactive migration (health mode only) ----------
  core::SourceApp* active_source = nullptr;
  core::SessionId active_session;
  std::optional<health::MigrationPolicy> migrator;
  struct ProbeCounters {
    std::uint64_t relayed = 0;
    std::uint64_t stalls = 0;
    std::uint64_t pressure = 0;
    std::uint64_t failed = 0;
  };
  std::vector<ProbeCounters> probe_prev(hosts.depots.size());
  bool probe_pending = false;
  std::function<void()> probe_tick = [&] {
    probe_pending = false;
    // The tick chain must eventually stop so the attempt loop's dead-path
    // detection (event queue drains) still works: stop on verdict or when
    // the source abandoned. A source that *cleanly* finished queuing stays
    // probed while resumable — its bytes may still be stranded behind a
    // wedged depot, which is exactly when migration earns its keep.
    if (sink_done || active_source == nullptr || active_source->gave_up() ||
        (active_source->finished() && !params.resumable_attempts)) {
      return;
    }
    const auto now_ms =
        static_cast<std::uint64_t>(util::to_millis(ev.now()));
    const double interval_s = util::to_seconds(params.health.probe_interval);
    const std::set<std::string> dead = injector.dead_depots();
    for (std::size_t i = 0; i < hosts.depots.size(); ++i) {
      const std::string& name = sc.depots[i]->name();
      const core::DepotStats& st = hosts.depots[i]->stats();
      const ProbeCounters cur{
          st.bytes_relayed, st.timeouts_stall,
          st.backpressure_stalls + st.sessions_refused_memory,
          st.sessions_failed};
      if (dead.count(name) != 0) {
        board->observe_failure(name, now_ms);
      } else {
        if (cur.failed > probe_prev[i].failed) board->observe_failure(name, now_ms);
        if (cur.stalls > probe_prev[i].stalls) board->observe_timeout(name, now_ms);
        if (cur.pressure > probe_prev[i].pressure) {
          board->observe_pressure(name, now_ms);
        }
        const std::uint64_t delta = cur.relayed - probe_prev[i].relayed;
        if (delta > 0) {
          board->observe_bps(name, static_cast<double>(delta) * 8.0 /
                                       interval_s, now_ms);
        } else if (st.sessions_accepted >
                   st.sessions_completed + st.sessions_failed) {
          // Sessions live, nothing moved this tick: a stalled relay — the
          // signal a kSlow fault (or a genuinely wedged depot) produces
          // without killing the connection.
          board->observe_timeout(name, now_ms);
        }
      }
      probe_prev[i] = cur;
    }
    // Proactive mid-transfer re-selection: evacuate the live session off a
    // depot the board now calls suspect, *before* its retry budget fires.
    if (migrator) {
      const std::string offender = migrator->should_migrate(route, now_ms);
      if (!offender.empty()) {
        const fault::Verdict v = policy.evacuate(dead, offender, bytes);
        if (v.route) {
          const core::CandidateRoute& r = policy.candidates()[*v.route];
          std::vector<std::string> next(r.waypoints.begin() + 1,
                                        r.waypoints.end() - 1);
          std::vector<core::HopAddress> hops;
          for (const std::string& n : next) {
            hops.push_back({net.find_node(n)->id(), kDepotPort});
          }
          sim::Node* fd = net.find_node(next.front());
          // The floor is the sink's stitched frontier — never the source's
          // ack counter, which can exceed what actually escaped the dying
          // chain's buffers.
          const std::uint64_t floor = ledger->frontier(active_session);
          if (active_source->migrate({fd->id(), kDepotPort}, std::move(hops),
                                     floor)) {
            migrator->note_migrated(now_ms);
            board->note_migration();
            ++res.migrations;
            if (res.migrations == 1) res.migration_floor = floor;
            LSL_LOG_INFO("chaos: migrated off %s at floor %llu",
                         offender.c_str(),
                         static_cast<unsigned long long>(floor));
            route = std::move(next);
          }
        }
      }
    }
    probe_pending = true;
    ev.schedule_in(params.health.probe_interval, probe_tick);
  };

  for (;;) {
    // Build this attempt's session over `route`.
    core::SourceConfig scfg;
    scfg.payload_bytes = bytes;
    scfg.payload_seed = seed;
    scfg.use_header = true;
    scfg.header.session = core::SessionId::generate(id_rng);
    scfg.header.payload_length = bytes;
    for (const std::string& name : route) {
      sim::Node* host = net.find_node(name);
      scfg.header.hops.push_back({host->id(), kDepotPort});
    }
    scfg.header.destination = {sc.dst->id(), kSinkPort};
    scfg.resumable = params.resumable_attempts;
    if (params.resumable_attempts) {
      // In-session losses ask the same policy; a verdict other than a
      // reconnect ends the session, and the attempt loop carries it out.
      scfg.reconnect_backoff =
          [&](std::uint64_t floor) -> std::optional<util::SimDuration> {
        const fault::Verdict v = policy.lost(floor);
        if (v.kind != fault::Verdict::Kind::kReconnect) {
          session_verdict = v;
          return std::nullopt;
        }
        if (fm) fm->on_attempt();
        return v.delay;
      };
    } else {
      scfg.header.flags |= core::kFlagDigestTrailer;
    }
    if (first_attempt && corrupt_at) {
      scfg.corrupt_at_byte = corrupt_at;
      scfg.on_corrupt = [&](std::uint64_t) {
        injector.note_injected(fault::FaultKind::kCorrupt);
      };
    }
    sim::Node* first_depot = net.find_node(route.front());
    const sim::Endpoint first_hop{first_depot->id(), kDepotPort};

    sources.push_back(std::make_unique<core::SourceApp>(
        hosts.src, first_hop, scfg, &dir));
    core::SourceApp* source = sources.back().get();
    injector.register_source(source);
    if (health_on) {
      active_source = source;
      active_session = scfg.header.session;
      // A fresh MigrationPolicy per attempt: the per-session migration
      // budget and cooldown restart with the session.
      migrator.emplace(&*board, params.health.migration);
      if (!probe_pending) {
        probe_pending = true;
        ev.schedule_in(params.health.probe_interval, probe_tick);
      }
    }
    source->start();
    if (first_start < 0) first_start = source->start_time();
    first_attempt = false;

    // Drive until the sink verdicts, the source abandons, or — a dead
    // attempt with nothing in flight — the event queue drains.
    while (!sink_done && !source->gave_up() && ev.now() <= kRunDeadline &&
           ev.step()) {
    }
    res.resumes += source->resumes();

    if (health_on && sink_done) {
      // Stream-level verdict: content checked against the seeded generator
      // across every stitched connection, digest against the whole-stream
      // MD5 — the proof that a migration resumed from the exact floor.
      res.stream_digest_ok =
          ledger->digest(completed_session) ==
          core::stream_digest(seed, bytes);
      sink_verified =
          ledger->content_ok(completed_session) && res.stream_digest_ok;
    }
    if (sink_done && sink_verified) {
      res.completed = true;
      res.verified = true;
      break;
    }
    if (ev.now() > kRunDeadline) {
      LSL_LOG_WARN("chaos: deadline exceeded");
      break;
    }
    // The attempt failed: source gave up, the path died with nothing in
    // flight, or the payload arrived corrupted.
    if (first_failure < 0) first_failure = ev.now();
    sink_done = false;
    sink_verified = false;

    // Carry out the policy's verdicts: wait out each tick on simulated time
    // (scripted restarts keep firing), then report the depots still down.
    fault::Verdict v = session_verdict ? *session_verdict : policy.lost();
    session_verdict.reset();
    while (v.kind == fault::Verdict::Kind::kMove && !v.route) {
      if (fm) fm->on_attempt();
      bool waited = false;
      ev.schedule_in(v.delay, [&waited] { waited = true; });
      while (!waited && ev.step()) {
      }
      v = policy.moved(injector.dead_depots(), {}, bytes);
    }
    if (v.kind == fault::Verdict::Kind::kGiveUp) {
      res.reroute_error = v.error;
      break;
    }
    const core::CandidateRoute& next = policy.candidates()[*v.route];
    std::vector<std::string> next_route(next.waypoints.begin() + 1,
                                        next.waypoints.end() - 1);
    if (next_route != route) {
      ++res.reroutes;
      if (fm) fm->on_reroute();
      LSL_LOG_INFO("chaos: rerouting via %s", next.describe().c_str());
    }
    route = std::move(next_route);
  }

  res.attempts = policy.attempts();
  res.faults_injected = injector.injected();
  res.final_route = route;
  if (health_on) res.health_transitions = board->transitions();
  res.retransmits = hosts.retransmits();
  res.events = ev.executed_count();
  if (res.completed) {
    const util::SimDuration elapsed = sink_time - first_start;
    res.seconds = util::to_seconds(elapsed);
    res.mbps = util::throughput_mbps(bytes, elapsed);
    if (first_failure >= 0 && fm) {
      fm->on_recovered(util::to_millis(sink_time - first_failure));
    }
  }
  return res;
}

}  // namespace lsl::exp
