// GossipPoller: a nonblocking admin-socket client that spreads depot
// health judgements between relay daemons.
//
// Each lsd daemon scores only the depots it personally dials; the depot
// two hops away learns nothing until its own dial fails. The poller
// closes that gap without any new wire protocol: on a fixed cadence it
// connects to each peer's *admin* Unix socket, issues the `gossip`
// command, and merges the returned `h1` rows into the local HealthBoard
// with a configurable weight (judgement blending — see
// BasicHealthBoard::merge for why counters are never added).
//
// Everything runs on one event loop (lsd_relay's control loop): the
// cadence is a timer on that loop, and connects, writes and reads
// are nonblocking and edge-driven, so a dead or wedged peer can never
// stall the relay path — its poll simply times out at the next cadence
// tick and the connection is abandoned. The host only runs the loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "engine/fd.hpp"
#include "health/board.hpp"

namespace lsl::posix {

struct GossipPollerConfig {
  /// Admin Unix-socket paths of the peers to poll.
  std::vector<std::string> peers;
  /// Cadence: every tick polls every peer, the first at once. A poll
  /// still in flight when the next tick arrives is abandoned (counted as
  /// a failure) and restarted.
  std::chrono::milliseconds interval{1000};
  /// Merge weight in (0, 1]: how far the local score shifts toward the
  /// remote judgement per poll.
  double weight = 0.5;
};

class GossipPoller {
 public:
  /// Every row a peer reports is merged into every board in `boards` —
  /// one per ShardedLsd shard (each board is mutex-guarded, so merging
  /// from the control thread is safe). The
  /// boards must outlive the poller; the loop drives all socket IO.
  GossipPoller(engine::EpollEngine& loop,
               std::vector<health::HealthBoard*> boards,
               GossipPollerConfig config);
  ~GossipPoller();

  GossipPoller(const GossipPoller&) = delete;
  GossipPoller& operator=(const GossipPoller&) = delete;

  std::uint64_t polls_completed() const { return completed_; }
  std::uint64_t polls_failed() const { return failed_; }
  std::uint64_t rows_merged() const { return merged_; }

 private:
  struct Peer {
    std::string path;
    engine::Fd sock;
    bool connecting = false;
    std::size_t sent = 0;    ///< bytes of the "gossip\n" command written
    std::string in;          ///< response bytes; complete at "\n\n"
  };

  /// One cadence tick: restart every peer's poll, then schedule the next.
  void tick();
  void start_poll(Peer& p);
  void on_event(Peer& p, std::uint32_t events);
  /// Write any unsent command bytes; false = peer closed/error.
  bool pump_send(Peer& p);
  void finish_poll(Peer& p, bool ok);
  void abandon(Peer& p);

  engine::EpollEngine& loop_;
  std::vector<health::HealthBoard*> boards_;
  GossipPollerConfig config_;
  std::vector<std::unique_ptr<Peer>> peers_;
  util::EventId tick_ = util::kInvalidEvent;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t merged_ = 0;
};

}  // namespace lsl::posix
