#include "tcp/socket.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "metrics/instruments.hpp"
#include "tcp/stack.hpp"
#include "util/log.hpp"

namespace lsl::tcp {

namespace {
/// Sequence-space length of a segment: payload plus one for SYN and FIN.
std::uint32_t seq_len(std::uint32_t payload, std::uint8_t flags) {
  std::uint32_t n = payload;
  if (flags & sim::kFlagSyn) ++n;
  if (flags & sim::kFlagFin) ++n;
  return n;
}
}  // namespace

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RECEIVED";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
  }
  return "?";
}

const char* to_string(TcpError e) {
  switch (e) {
    case TcpError::kNone: return "NONE";
    case TcpError::kConnectTimeout: return "CONNECT_TIMEOUT";
    case TcpError::kReset: return "RESET";
    case TcpError::kTimedOut: return "TIMED_OUT";
  }
  return "?";
}

const util::TransitionTable<TcpState, kTcpStateCount>& tcp_transition_table() {
  using S = TcpState;
  static const util::TransitionTable<TcpState, kTcpStateCount> table{
      "tcp", to_string, {
          // Establishment.
          {S::kClosed, S::kSynSent},         // active open
          {S::kClosed, S::kSynReceived},     // passive open
          {S::kSynSent, S::kEstablished},    // SYN|ACK received
          {S::kSynReceived, S::kEstablished},// handshake ACK received
          // Local close first.
          {S::kEstablished, S::kFinWait1},   // we sent FIN
          {S::kFinWait1, S::kFinWait2},      // our FIN acked
          {S::kFinWait1, S::kClosing},       // simultaneous close
          // Remote close first.
          {S::kEstablished, S::kCloseWait},  // peer FIN consumed
          {S::kCloseWait, S::kLastAck},      // then we sent FIN
          // Clean completion (TIME_WAIT collapses into kClosed).
          {S::kFinWait2, S::kClosed},
          {S::kClosing, S::kClosed},
          {S::kLastAck, S::kClosed},
          // Abortive close (RST, connect timeout, data-retry exhaustion)
          // is legal from every live state.
          {S::kSynSent, S::kClosed},
          {S::kSynReceived, S::kClosed},
          {S::kEstablished, S::kClosed},
          {S::kFinWait1, S::kClosed},
          {S::kCloseWait, S::kClosed},
      }};
  return table;
}

TcpSocket::TcpSocket(TcpStack& stack, sim::Endpoint local, sim::Endpoint remote,
                     const TcpConfig& config, bool active_open)
    : stack_(stack),
      local_(local),
      remote_(remote),
      config_(config),
      send_buf_(config.send_buffer, config.carry_data),
      recv_buf_(config.recv_buffer, config.carry_data) {
  (void)active_open;
  cwnd_ = static_cast<std::uint64_t>(config_.initial_cwnd_segments) *
          config_.mss;
  // RFC 5681: initial ssthresh is arbitrarily high unless route metrics
  // (config) supply a warmed value; the first loss adjusts it either way.
  ssthresh_ = config_.initial_ssthresh > 0 ? config_.initial_ssthresh
                                           : ~std::uint64_t{0} / 2;
  advertised_wnd_ = recv_buf_.window();
}

TcpSocket::~TcpSocket() {
  cancel_rto();
  auto& ev = stack_.sim().events();
  ev.cancel(delack_timer_);
  ev.cancel(persist_timer_);
}

util::SimTime TcpSocket::now() const { return stack_.sim().now(); }

util::SimDuration TcpSocket::rto() const {
  util::SimDuration base;
  if (have_rtt_) {
    const double var = std::max(rttvar_ns_ * 4.0,
                                static_cast<double>(util::kMillisecond));
    base = static_cast<util::SimDuration>(srtt_ns_ + var);
  } else {
    base = config_.initial_rto;
  }
  base = std::clamp(base, config_.min_rto, config_.max_rto);
  const std::uint32_t shift = std::min(rto_backoff_, 12u);
  const util::SimDuration backed = base << shift;
  return std::min(backed < base ? config_.max_rto : backed, config_.max_rto);
}

// --- Application API ---------------------------------------------------------

std::size_t TcpSocket::send(std::span<const std::uint8_t> data) {
  assert(config_.carry_data && "send() requires carry_data sockets");
  if (fin_pending_ || state_ == TcpState::kClosed) return 0;
  const std::size_t n = send_buf_.write(data);
  maybe_send();
  return n;
}

std::uint64_t TcpSocket::send_virtual(std::uint64_t n) {
  assert(!config_.carry_data && "send_virtual() requires virtual sockets");
  if (fin_pending_ || state_ == TcpState::kClosed) return 0;
  const std::uint64_t taken = send_buf_.write_virtual(n);
  maybe_send();
  return taken;
}

std::size_t TcpSocket::recv(std::span<std::uint8_t> out) {
  const std::size_t n = recv_buf_.read(out);
  if (n > 0) maybe_send_window_update();
  return n;
}

std::uint64_t TcpSocket::recv_virtual(std::uint64_t max) {
  const std::uint64_t n = recv_buf_.read_virtual(max);
  if (n > 0) maybe_send_window_update();
  return n;
}

void TcpSocket::close() {
  if (fin_pending_ || state_ == TcpState::kClosed) return;
  fin_pending_ = true;
  maybe_send();
}

void TcpSocket::abort() {
  if (state_ == TcpState::kClosed) return;
  sim::Packet p;
  p.src = local_.node;
  p.dst = remote_.node;
  p.proto = sim::Protocol::kTcp;
  p.tcp.src_port = local_.port;
  p.tcp.dst_port = remote_.port;
  p.tcp.seq = snd_nxt_;
  p.tcp.flags = sim::kFlagRst;
  p.serial = stack_.sim().next_packet_serial();
  emit(std::move(p), false);
  fail(TcpError::kReset);
}

// --- Connection establishment ------------------------------------------------

void TcpSocket::set_state(TcpState to) {
  tcp_transition_table().check(state_, to);
  state_ = to;
}

void TcpSocket::start_connect() {
  set_state(TcpState::kSynSent);
  send_segment(0, 0, sim::kFlagSyn, false);
  arm_rto();
}

void TcpSocket::start_passive(std::uint64_t peer_syn_seq) {
  // The peer's SYN occupies sequence 0 in its own space; nothing enters the
  // receive buffer, our ACK of it is implied by current_rcv_ack() == 1.
  (void)peer_syn_seq;
  set_state(TcpState::kSynReceived);
  send_segment(0, 0, sim::kFlagSyn | sim::kFlagAck, false);
  arm_rto();
}

void TcpSocket::become_established() {
  if (state_ == TcpState::kEstablished) return;
  const bool was_passive = state_ == TcpState::kSynReceived;
  set_state(TcpState::kEstablished);
  if (on_established) on_established();
  (void)was_passive;
  maybe_send();
}

// --- Packet handling ---------------------------------------------------------

void TcpSocket::handle_packet(sim::Packet&& p) {
  if (in_hook_) in_hook_(p);

  if (p.has(sim::kFlagRst)) {
    fail(TcpError::kReset);
    return;
  }

  switch (state_) {
    case TcpState::kClosed:
      // TIME_WAIT-lite: after a clean close, a retransmitted FIN (our final
      // ACK was lost) must be re-acknowledged or the peer retransmits it
      // forever. Aborted sockets stay silent.
      if (error_ == TcpError::kNone &&
          (p.has(sim::kFlagFin) || p.payload_bytes > 0)) {
        send_ack_now();
      }
      return;

    case TcpState::kSynSent: {
      if (p.has(sim::kFlagSyn) && p.has(sim::kFlagAck) && p.tcp.ack >= 1) {
        handle_ack(p);  // acks our SYN, pops it from flight
        become_established();
        send_ack_now();
      }
      return;
    }

    case TcpState::kSynReceived: {
      if (p.has(sim::kFlagSyn) && !p.has(sim::kFlagAck)) {
        // Duplicate SYN: our SYN|ACK was lost; retransmit it.
        retransmit_one(0);
        return;
      }
      if (p.has(sim::kFlagAck) && p.tcp.ack >= 1) {
        handle_ack(p);
        become_established();
        if (p.payload_bytes > 0 || p.has(sim::kFlagFin)) handle_data(p);
      }
      return;
    }

    // All post-handshake states share one data path: ACK processing plus
    // in-order delivery; state-specific close behavior lives in handle_data.
    default: {
      if (p.has(sim::kFlagSyn) && p.has(sim::kFlagAck)) {
        // Retransmitted SYN|ACK: our final handshake ACK was lost.
        send_ack_now();
        return;
      }
      if (p.has(sim::kFlagAck)) handle_ack(p);
      if (p.payload_bytes > 0 || p.has(sim::kFlagFin)) handle_data(p);
      return;
    }
  }
}

void TcpSocket::handle_ack(const sim::Packet& p) {
  if (!p.has(sim::kFlagAck)) return;
  ++stats_.acks_received;
  const std::uint64_t ack = p.tcp.ack;
  const std::uint64_t wnd = p.tcp.window;

  if (ack > snd_nxt_ && ack > snd_max_) {
    // Acks data we never sent; ignore (cannot happen with our own model).
    return;
  }

  const bool new_sack = config_.sack && merge_peer_sack(p);

  if (ack > snd_una_) {
    const std::uint64_t newly = ack - snd_una_;

    // Pop fully acked segments; take an RTT sample from the most recently
    // (first-)transmitted one (Karn's algorithm: never from retransmits).
    util::SimTime sample_send_time = -1;
    while (!inflight_.empty()) {
      Segment& seg = inflight_.front();
      if (seg.seq + seg.len <= ack) {
        if (!seg.retransmitted) {
          sample_send_time = std::max(sample_send_time, seg.send_time);
        }
        inflight_.pop_front();
      } else if (seg.seq < ack) {
        // Partial segment ack (window-probe interactions); shrink it.
        const std::uint64_t eaten = ack - seg.seq;
        seg.seq = ack;
        seg.len -= static_cast<std::uint32_t>(eaten);
        break;
      } else {
        break;
      }
    }
    if (sample_send_time >= 0) {
      take_rtt_sample(stack_.sim().now() - sample_send_time);
    }
    rto_backoff_ = 0;

    snd_una_ = ack;
    // After an RTO rewind, a late ACK for the original transmissions can
    // overtake the rewound send point; never let snd_nxt lag snd_una.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    LSL_INVARIANT(snd_una_ <= snd_nxt_ && snd_nxt_ <= snd_max_,
                  "sender sequence pointers out of order");
    const std::uint64_t stream_acked =
        std::min<std::uint64_t>(ack > 0 ? ack - 1 : 0, send_buf_.written());
    send_buf_.ack_to(stream_acked);
    stats_.bytes_acked = stream_acked;
    sacked_.erase_below(snd_una_);
    retx_rec_.erase_below(snd_una_);

    peer_wnd_ = wnd;
    peer_wnd_edge_ = ack + wnd;

    check_fin_acked(ack);

    if (in_recovery_) {
      if (ack >= recovery_point_) {
        // Full ACK: recovery complete.
        cwnd_ = std::max<std::uint64_t>(ssthresh_, 2 * config_.mss);
        in_recovery_ = false;
        dupacks_ = 0;
      } else if (config_.sack) {
        // Partial ACK under SACK recovery: the pipe shrank; fill holes.
        send_in_recovery();
        arm_rto();
      } else {
        // Partial ACK: retransmit the next hole, deflate, stay in recovery.
        retransmit_one(snd_una_);
        const std::uint64_t deflate =
            newly > config_.mss ? newly - config_.mss : 0;
        cwnd_ = cwnd_ > deflate ? cwnd_ - deflate : config_.mss;
        cwnd_ = std::max<std::uint64_t>(cwnd_, config_.mss);
        arm_rto();
      }
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        // Slow start: one MSS per ACK (bounded by bytes acked).
        cwnd_ += std::min<std::uint64_t>(newly, config_.mss);
      } else {
        // Congestion avoidance: MSS*MSS/cwnd per ACK, accumulated exactly.
        cwnd_frac_ += static_cast<double>(config_.mss) *
                      static_cast<double>(config_.mss) /
                      static_cast<double>(cwnd_);
        const auto inc = static_cast<std::uint64_t>(cwnd_frac_);
        cwnd_ += inc;
        cwnd_frac_ -= static_cast<double>(inc);
      }
    }

    if (flight_size() == 0) {
      cancel_rto();
    } else {
      arm_rto();
    }

    maybe_send();
    maybe_finish_close();
    if (on_writable && send_buf_.free_space() > 0 && !fin_pending_ &&
        state_ != TcpState::kClosed) {
      on_writable();
    }
    return;
  }

  if (ack == snd_una_) {
    const std::uint64_t new_edge = ack + wnd;
    if (new_edge > peer_wnd_edge_) {
      // Window update, not a duplicate ACK.
      peer_wnd_ = wnd;
      peer_wnd_edge_ = new_edge;
      cancel_persist();
      maybe_send();
      return;
    }
    if (p.payload_bytes == 0 && !p.has(sim::kFlagSyn) &&
        !p.has(sim::kFlagFin) && flight_size() > 0) {
      ++dupacks_;
      if (in_recovery_) {
        if (config_.sack) {
          // The SACK scoreboard grew; pipe shrank — fill holes.
          if (new_sack) send_in_recovery();
        } else {
          // Reno inflation: each dup ACK signals a departed segment.
          cwnd_ += config_.mss;
          maybe_send();
        }
      } else if (dupacks_ >= config_.dupack_threshold) {
        enter_recovery();
      }
    }
  }
  // ack < snd_una_: old duplicate; ignore.
}

bool TcpSocket::merge_peer_sack(const sim::Packet& p) {
  bool new_info = false;
  for (const auto& [s, e] : p.tcp.sack) {
    const std::uint64_t s2 = std::max(s, snd_una_);
    const std::uint64_t e2 = std::min(e, snd_max_);
    if (s2 >= e2) continue;
    if (!sacked_.contains(s2, e2)) {
      sacked_.insert(s2, e2);
      new_info = true;
    }
  }
  return new_info;
}

std::uint64_t TcpSocket::sack_pipe() const {
  const std::uint64_t flight = snd_nxt_ - snd_una_;
  const std::uint64_t sacked_in =
      sacked_.covered_within(snd_una_, snd_nxt_);
  // Bytes deemed lost: holes below the highest SACKed sequence that have
  // not been retransmitted in this recovery episode.
  std::uint64_t lost = 0;
  const std::uint64_t high = std::min(sacked_.max_end(), snd_nxt_);
  std::uint64_t from = snd_una_;
  while (auto gap = sacked_.next_gap(from, high)) {
    lost += (gap->second - gap->first) -
            retx_rec_.covered_within(gap->first, gap->second);
    from = gap->second;
  }
  const std::uint64_t out = sacked_in + lost;
  return flight > out ? flight - out : 0;
}

void TcpSocket::send_in_recovery() {
  if (state_ == TcpState::kClosed) return;
  bool sent = false;
  for (int guard = 0; guard < 4096; ++guard) {
    if (sack_pipe() + config_.mss > cwnd_) break;

    // First priority: retransmit the lowest hole below the highest SACK.
    const std::uint64_t high = std::min(sacked_.max_end(), snd_nxt_);
    std::optional<util::IntervalSet::Interval> hole;
    std::uint64_t from = snd_una_;
    while (auto gap = sacked_.next_gap(from, high)) {
      if (auto h = retx_rec_.next_gap(gap->first, gap->second)) {
        hole = h;
        break;
      }
      from = gap->second;
    }
    if (hole) {
      const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          config_.mss, hole->second - hole->first));
      retransmit_range(hole->first, len);
      retx_rec_.insert(hole->first, hole->first + len);
      sent = true;
      continue;
    }

    // Second priority: new data, subject to the peer window.
    const std::uint64_t data_end_seq = send_buf_.written() + 1;
    const std::uint64_t avail =
        data_end_seq > snd_nxt_ ? data_end_seq - snd_nxt_ : 0;
    const std::uint64_t rwnd_allow =
        peer_wnd_edge_ > snd_nxt_ ? peer_wnd_edge_ - snd_nxt_ : 0;
    if (avail == 0 || rwnd_allow == 0) break;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({avail, rwnd_allow, config_.mss}));
    send_segment(snd_nxt_, len, sim::kFlagAck, false);
    sent = true;
  }
  if (sent && rto_timer_ == util::kInvalidEvent) arm_rto();
}

void TcpSocket::enter_recovery() {
  LSL_PRECONDITION(!in_recovery_, "re-entered fast recovery");
  ssthresh_ = std::max<std::uint64_t>(flight_size() / 2,
                                      2 * static_cast<std::uint64_t>(config_.mss));
  recovery_point_ = snd_max_;
  in_recovery_ = true;
  ++stats_.fast_retransmits;
  ++stats_.recovery_episodes;
  if (metrics_) metrics_->on_recovery();
  if (config_.sack) {
    // RFC 6675-style: cwnd pinned at ssthresh; the first hole (which by
    // definition starts at snd_una) is retransmitted unconditionally, then
    // the pipe rule governs.
    retx_rec_.clear();
    cwnd_ = ssthresh_;
    const std::uint32_t len = config_.mss;
    retransmit_range(snd_una_, len);
    retx_rec_.insert(snd_una_, snd_una_ + len);
    arm_rto();
    send_in_recovery();
    sample_cwnd_metrics();
    return;
  }
  retransmit_one(snd_una_);
  cwnd_ = ssthresh_ + 3 * static_cast<std::uint64_t>(config_.mss);
  arm_rto();
  maybe_send();
  sample_cwnd_metrics();
}

void TcpSocket::handle_data(const sim::Packet& p) {
  const std::uint64_t seq = p.tcp.seq;
  bool advanced = false;

  if (p.payload_bytes > 0) {
    ++stats_.segments_received;
    const std::uint64_t offset = seq > 0 ? seq - 1 : 0;
    advanced = recv_buf_.insert(offset, p.payload_bytes, p.data);
    stats_.bytes_received = recv_buf_.rcv_nxt();

    if (config_.sack) {
      // Maintain the advertised SACK block list: the block containing the
      // arrival goes first (RFC 2018), stale blocks fall off the tail.
      const std::uint64_t frontier_seq = recv_buf_.rcv_nxt() + 1;
      std::erase_if(rcv_sack_blocks_, [frontier_seq](const auto& b) {
        return b.second <= frontier_seq;
      });
      if (offset >= recv_buf_.rcv_nxt()) {
        if (const auto blk = recv_buf_.ooo_block_containing(offset)) {
          const std::pair<std::uint64_t, std::uint64_t> sb{blk->first + 1,
                                                           blk->second + 1};
          std::erase_if(rcv_sack_blocks_, [&sb](const auto& b) {
            return b.first >= sb.first && b.second <= sb.second;
          });
          rcv_sack_blocks_.insert(rcv_sack_blocks_.begin(), sb);
          if (rcv_sack_blocks_.size() > 4) rcv_sack_blocks_.resize(4);
        }
      }
    }
  }

  if (p.has(sim::kFlagFin) && !have_remote_fin_) {
    have_remote_fin_ = true;
    remote_fin_seq_ = seq + p.payload_bytes;
  }

  bool fin_just_consumed = false;
  if (have_remote_fin_ && !fin_received_ &&
      recv_buf_.rcv_nxt() + 1 == remote_fin_seq_) {
    fin_received_ = true;
    fin_just_consumed = true;
    advanced = true;
    switch (state_) {
      case TcpState::kEstablished:
        set_state(TcpState::kCloseWait);
        break;
      case TcpState::kFinWait1:
        set_state(TcpState::kClosing);
        break;
      case TcpState::kFinWait2:
        break;  // resolved in maybe_finish_close
      default:
        break;  // FIN in other states changes nothing until our side acts
    }
  }

  // ACK generation (RFC 5681 §4.2): immediate ACK for out-of-order arrivals
  // and gap fills; otherwise delayed ACK every second full segment.
  const bool out_of_order = !advanced || recv_buf_.out_of_order_bytes() > 0;
  if (fin_just_consumed || out_of_order) {
    send_ack_now();
  } else {
    ++segs_since_ack_;
    if (segs_since_ack_ >= 2) {
      send_ack_now();
    } else {
      schedule_delack();
    }
  }

  if (recv_buf_.readable() > 0 || eof()) notify_readable();
  maybe_finish_close();
}

void TcpSocket::notify_readable() {
  if (on_readable) on_readable();
}

// --- Sending -----------------------------------------------------------------

void TcpSocket::maybe_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck &&
      state_ != TcpState::kClosing) {
    return;
  }
  if (in_recovery_ && config_.sack) {
    // During SACK recovery the pipe rule governs all transmissions.
    send_in_recovery();
    return;
  }

  for (;;) {
    const std::uint64_t data_end_seq = send_buf_.written() + 1;
    const std::uint64_t avail =
        data_end_seq > snd_nxt_ ? data_end_seq - snd_nxt_ : 0;
    const std::uint64_t flight = flight_size();
    const std::uint64_t cwnd_allow = cwnd_ > flight ? cwnd_ - flight : 0;
    const std::uint64_t rwnd_allow =
        peer_wnd_edge_ > snd_nxt_ ? peer_wnd_edge_ - snd_nxt_ : 0;
    const std::uint64_t usable = std::min(cwnd_allow, rwnd_allow);

    if (avail > 0) {
      if (usable == 0) {
        if (flight == 0 && rwnd_allow == 0) arm_persist();
        break;
      }
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>({avail, usable, config_.mss}));
      send_segment(snd_nxt_, len, sim::kFlagAck, false);
      continue;
    }

    // All data sent; emit FIN if the application closed.
    if (fin_pending_ && !fin_sent_ && snd_nxt_ == data_end_seq) {
      fin_seq_ = snd_nxt_;
      send_segment(snd_nxt_, 0, sim::kFlagFin | sim::kFlagAck, false);
      fin_sent_ = true;
      if (state_ == TcpState::kEstablished) {
        set_state(TcpState::kFinWait1);
      } else if (state_ == TcpState::kCloseWait) {
        set_state(TcpState::kLastAck);
      }
    }
    break;
  }

  if (flight_size() > 0 && rto_timer_ == util::kInvalidEvent) arm_rto();
}

void TcpSocket::send_segment(std::uint64_t seq, std::uint32_t payload_len,
                             std::uint8_t flags, bool retransmit) {
  const std::uint32_t slen = seq_len(payload_len, flags);
  const bool wire_retx = retransmit || (slen > 0 && seq < snd_max_);

  sim::Packet p;
  p.src = local_.node;
  p.dst = remote_.node;
  p.proto = sim::Protocol::kTcp;
  p.tcp.src_port = local_.port;
  p.tcp.dst_port = remote_.port;
  p.tcp.seq = seq;
  p.tcp.flags = flags;
  if (flags & sim::kFlagAck) {
    p.tcp.ack = current_rcv_ack();
    p.tcp.window = current_window();
    advertised_wnd_ = p.tcp.window;
    if (config_.sack && !rcv_sack_blocks_.empty()) {
      const std::uint64_t ack = p.tcp.ack;
      for (const auto& b : rcv_sack_blocks_) {
        if (b.second <= ack) continue;  // already cumulatively acked
        p.tcp.sack.push_back(b);
        if (p.tcp.sack.full()) break;
      }
    }
    // Any segment carries the current ACK: piggybacking cancels delayed ACK.
    if (delack_timer_ != util::kInvalidEvent) {
      stack_.sim().events().cancel(delack_timer_);
      delack_timer_ = util::kInvalidEvent;
    }
    segs_since_ack_ = 0;
  }
  p.payload_bytes = payload_len;
  if (payload_len > 0 && config_.carry_data) {
    p.data = send_buf_.slice(seq - 1, payload_len);
  }
  p.serial = stack_.sim().next_packet_serial();

  if (slen > 0) {
    if (wire_retx) {
      ++stats_.retransmits;
      if (metrics_) metrics_->on_retransmit();
      // Refresh (or re-add) bookkeeping for the retransmitted range.
      bool found = false;
      for (std::size_t i = 0; i < inflight_.size(); ++i) {
        Segment& seg = inflight_[i];
        if (seg.seq == seq) {
          seg.retransmitted = true;
          seg.send_time = stack_.sim().now();
          found = true;
          break;
        }
      }
      if (!found) {
        inflight_.push_front(
            Segment{seq, slen, stack_.sim().now(), true});
        const std::span<Segment> segs = inflight_.contiguous();
        std::sort(segs.begin(), segs.end(),
                  [](const Segment& a, const Segment& b) {
                    return a.seq < b.seq;
                  });
      }
    } else {
      inflight_.push_back(Segment{seq, slen, stack_.sim().now(), false});
      if (payload_len > 0) {
        ++stats_.segments_sent;
        stats_.bytes_sent += payload_len;
      }
    }
    snd_nxt_ = std::max(snd_nxt_, seq + slen);
    snd_max_ = std::max(snd_max_, snd_nxt_);
  } else {
    ++stats_.acks_sent;
  }

  emit(std::move(p), wire_retx);
}

void TcpSocket::retransmit_one(std::uint64_t seq) {
  retransmit_range(seq, config_.mss);
}

void TcpSocket::retransmit_range(std::uint64_t seq, std::uint32_t max_len) {
  std::uint8_t flags = sim::kFlagAck;
  std::uint32_t payload = 0;

  if (seq == 0) {
    // Handshake segment. Passive sockets combined SYN|ACK; active plain SYN.
    flags = (state_ == TcpState::kSynSent)
                ? static_cast<std::uint8_t>(sim::kFlagSyn)
                : static_cast<std::uint8_t>(sim::kFlagSyn | sim::kFlagAck);
    send_segment(0, 0, flags, true);
    return;
  }
  if (fin_sent_ && seq == fin_seq_) {
    send_segment(seq, 0, sim::kFlagFin | sim::kFlagAck, true);
    return;
  }
  const std::uint64_t data_end_seq = send_buf_.written() + 1;
  if (seq >= data_end_seq) return;  // nothing there (stale)
  const std::uint64_t until_fin = data_end_seq - seq;
  payload = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      {until_fin, config_.mss, snd_max_ - seq, max_len}));
  if (payload == 0) return;
  // If the FIN immediately follows this retransmitted slice and was already
  // sent, resend it separately via its own loss handling.
  send_segment(seq, payload, flags, true);
}

// --- Timers ------------------------------------------------------------------

void TcpSocket::arm_rto() {
  cancel_rto();
  rto_timer_ = stack_.sim().events().schedule_in(
      rto(), [this] {
        rto_timer_ = util::kInvalidEvent;
        on_rto_timer();
      });
}

void TcpSocket::cancel_rto() {
  if (rto_timer_ != util::kInvalidEvent) {
    stack_.sim().events().cancel(rto_timer_);
    rto_timer_ = util::kInvalidEvent;
  }
}

void TcpSocket::on_rto_timer() {
  if (state_ == TcpState::kClosed) return;
  ++stats_.timeouts;
  if (metrics_) metrics_->on_timeout();
  rto_backoff_ = std::min(rto_backoff_ + 1, 12u);

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    if (++syn_retries_ > config_.max_syn_retries) {
      fail(TcpError::kConnectTimeout);
      return;
    }
    retransmit_one(0);
    arm_rto();
    return;
  }

  if (flight_size() == 0) return;  // spurious

  // Give up after a bounded run of consecutive unanswered timeouts (the
  // peer is unreachable); rto_backoff_ resets on any new ACK.
  if (rto_backoff_ >= config_.max_data_retries) {
    fail(TcpError::kTimedOut);
    return;
  }

  // RFC 5681: collapse to one segment, re-enter slow start, and resend from
  // the oldest unacknowledged byte (go-back-N; ACKs for originals still in
  // flight will suppress unnecessary resends).
  ssthresh_ = std::max<std::uint64_t>(
      flight_size() / 2, 2 * static_cast<std::uint64_t>(config_.mss));
  cwnd_ = config_.mss;
  cwnd_frac_ = 0.0;
  in_recovery_ = false;
  dupacks_ = 0;
  // Discard SACK state (reneging-safe) and fall back to go-back-N.
  sacked_.clear();
  retx_rec_.clear();
  inflight_.clear();
  snd_nxt_ = snd_una_;
  // If the rewind moved below the FIN, it must be resent by maybe_send().
  if (fin_sent_ && snd_nxt_ <= fin_seq_) fin_sent_ = false;
  maybe_send();
  arm_rto();
  sample_cwnd_metrics();
}

void TcpSocket::arm_persist() {
  if (persist_timer_ != util::kInvalidEvent) return;
  const util::SimDuration delay = std::min<util::SimDuration>(
      config_.min_rto << std::min(persist_backoff_, 10u),
      util::seconds(60));
  persist_timer_ = stack_.sim().events().schedule_in(delay, [this] {
    persist_timer_ = util::kInvalidEvent;
    on_persist_timer();
  });
}

void TcpSocket::cancel_persist() {
  if (persist_timer_ != util::kInvalidEvent) {
    stack_.sim().events().cancel(persist_timer_);
    persist_timer_ = util::kInvalidEvent;
  }
  persist_backoff_ = 0;
}

void TcpSocket::on_persist_timer() {
  if (state_ == TcpState::kClosed) return;
  const std::uint64_t data_end_seq = send_buf_.written() + 1;
  const std::uint64_t avail =
      data_end_seq > snd_nxt_ ? data_end_seq - snd_nxt_ : 0;
  const std::uint64_t rwnd_allow =
      peer_wnd_edge_ > snd_nxt_ ? peer_wnd_edge_ - snd_nxt_ : 0;
  if (avail == 0 || rwnd_allow > 0) {
    maybe_send();
    return;
  }
  // Zero-window probe: one byte beyond the advertised window.
  send_segment(snd_nxt_, 1, sim::kFlagAck, false);
  ++persist_backoff_;
  arm_persist();
}

void TcpSocket::take_rtt_sample(util::SimDuration sample) {
  if (sample < 0) return;
  const double r = static_cast<double>(sample);
  if (!have_rtt_) {
    srtt_ns_ = r;
    rttvar_ns_ = r / 2.0;
    have_rtt_ = true;
    stats_.min_rtt = sample;
  } else {
    rttvar_ns_ = 0.75 * rttvar_ns_ + 0.25 * std::abs(srtt_ns_ - r);
    srtt_ns_ = 0.875 * srtt_ns_ + 0.125 * r;
    stats_.min_rtt = std::min(stats_.min_rtt, sample);
  }
  ++stats_.rtt_samples;
  stats_.srtt = static_cast<util::SimDuration>(srtt_ns_);
  if (metrics_) {
    // The ACK clock makes this a per-RTT cadence — the natural rate for
    // sampling the congestion state without touching the per-packet path.
    metrics_->on_rtt_sample(util::to_seconds(stack_.sim().now()),
                            util::to_seconds(sample), srtt_ns_ * 1e-9);
    sample_cwnd_metrics();
  }
}

void TcpSocket::sample_cwnd_metrics() {
  if (!metrics_) return;
  metrics_->on_cwnd(util::to_seconds(stack_.sim().now()), cwnd_, ssthresh_);
}

// --- Receiver ACK machinery --------------------------------------------------

std::uint64_t TcpSocket::current_rcv_ack() const {
  // Peer SYN consumes sequence 0; FIN consumes one more past the data.
  return 1 + recv_buf_.rcv_nxt() + (fin_received_ ? 1 : 0);
}

std::uint64_t TcpSocket::current_window() const { return recv_buf_.window(); }

void TcpSocket::send_ack_now() {
  if (delack_timer_ != util::kInvalidEvent) {
    stack_.sim().events().cancel(delack_timer_);
    delack_timer_ = util::kInvalidEvent;
  }
  segs_since_ack_ = 0;
  send_segment(snd_nxt_, 0, sim::kFlagAck, false);
}

void TcpSocket::schedule_delack() {
  if (delack_timer_ != util::kInvalidEvent) return;
  delack_timer_ = stack_.sim().events().schedule_in(
      config_.delayed_ack_timeout, [this] {
        delack_timer_ = util::kInvalidEvent;
        on_delack_timer();
      });
}

void TcpSocket::on_delack_timer() {
  if (state_ == TcpState::kClosed) return;
  send_ack_now();
}

void TcpSocket::maybe_send_window_update() {
  if (state_ == TcpState::kClosed) return;
  const std::uint64_t wnd = current_window();
  if (wnd <= advertised_wnd_) return;
  // Send an update when the window grew by >= 2 MSS or reopened from zero
  // (the classic silly-window-avoidance receiver rule).
  if (advertised_wnd_ == 0 ||
      wnd - advertised_wnd_ >= 2ull * config_.mss) {
    send_ack_now();
  }
}

// --- Close / teardown --------------------------------------------------------

void TcpSocket::check_fin_acked(std::uint64_t ack) {
  // fin_seq_ is fixed the first time the FIN is sent (the stream length is
  // frozen by close()); the check must hold even if an RTO rewind cleared
  // fin_sent_ and the covering ACK for the original FIN arrives before the
  // retransmission goes out.
  if (fin_acked_ || fin_seq_ == 0) return;
  if (ack >= fin_seq_ + 1) {
    fin_acked_ = true;
    fin_sent_ = true;
    if (state_ == TcpState::kFinWait1) set_state(TcpState::kFinWait2);
  }
}

void TcpSocket::maybe_finish_close() {
  if (state_ == TcpState::kClosed) return;
  if (fin_sent_ && fin_acked_ && fin_received_) {
    set_state(TcpState::kClosed);
    cancel_rto();
    cancel_persist();
    auto& ev = stack_.sim().events();
    if (delack_timer_ != util::kInvalidEvent) {
      ev.cancel(delack_timer_);
      delack_timer_ = util::kInvalidEvent;
    }
    if (!closed_notified_) {
      closed_notified_ = true;
      if (on_closed) on_closed();
    }
  }
}

void TcpSocket::fail(TcpError err) {
  if (state_ == TcpState::kClosed) return;
  set_state(TcpState::kClosed);
  error_ = err;
  cancel_rto();
  cancel_persist();
  auto& ev = stack_.sim().events();
  if (delack_timer_ != util::kInvalidEvent) {
    ev.cancel(delack_timer_);
    delack_timer_ = util::kInvalidEvent;
  }
  if (on_error) on_error(err);
  if (!closed_notified_) {
    closed_notified_ = true;
    if (on_closed) on_closed();
  }
}

void TcpSocket::emit(sim::Packet&& p, bool retransmit) {
  if (out_hook_) out_hook_(p, retransmit);
  stack_.transmit(std::move(p));
}

}  // namespace lsl::tcp
