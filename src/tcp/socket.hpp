// One simulated TCP connection.
//
// Implements the sender and receiver halves of TCP Reno/NewReno over the
// discrete-event network: three-way handshake, cumulative ACKs with delayed
// ACK policy, sliding-window flow control against the advertised window,
// slow start / congestion avoidance, fast retransmit + (NewReno) fast
// recovery with partial-ACK retransmission, Jacobson/Karels RTO estimation
// with Karn's algorithm and exponential backoff, zero-window persist probes,
// and orderly FIN teardown.
//
// The asynchronous API mirrors a nonblocking BSD socket: applications set
// callbacks and call send/recv from them; all I/O completes inside the
// event loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "tcp/buffers.hpp"
#include "tcp/tcp.hpp"
#include "util/interval_set.hpp"
#include "util/ring.hpp"
#include "util/units.hpp"

namespace lsl::metrics {
struct TcpConnMetrics;
}

namespace lsl::tcp {

class TcpStack;

/// A simulated TCP connection endpoint.
///
/// Instances are created and owned by a TcpStack (via connect() or a
/// listener); applications hold non-owning pointers which remain valid for
/// the lifetime of the stack.
class TcpSocket {
 public:
  /// Sender-side trace hook: every outgoing packet, with a retransmission
  /// flag — the simulator's tcpdump-at-the-sender.
  using PacketOutHook = std::function<void(const sim::Packet&, bool retx)>;
  /// Every incoming packet for this connection.
  using PacketInHook = std::function<void(const sim::Packet&)>;

  /// Fires when the handshake completes (connect() side) or the connection
  /// is fully established (accepted side).
  std::function<void()> on_established;
  /// Fires when new in-order bytes (or EOF) become available.
  std::function<void()> on_readable;
  /// Fires when send-buffer space becomes available after ACKs.
  std::function<void()> on_writable;
  /// Fires once when the connection reaches kClosed cleanly.
  std::function<void()> on_closed;
  /// Fires once on abortive termination.
  std::function<void(TcpError)> on_error;

  ~TcpSocket();

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // --- Data transfer --------------------------------------------------------

  /// Queue real bytes for transmission; returns bytes accepted (bounded by
  /// send-buffer space). Requires TcpConfig::carry_data.
  std::size_t send(std::span<const std::uint8_t> data);

  /// Queue `n` virtual bytes; returns bytes accepted. Requires
  /// !TcpConfig::carry_data.
  std::uint64_t send_virtual(std::uint64_t n);

  /// Free space in the send buffer.
  std::uint64_t send_space() const { return send_buf_.free_space(); }

  /// Read available in-order bytes into `out`; returns bytes read.
  std::size_t recv(std::span<std::uint8_t> out);

  /// Consume up to `max` in-order bytes without copying.
  std::uint64_t recv_virtual(std::uint64_t max);

  /// In-order bytes ready to read.
  std::uint64_t readable() const { return recv_buf_.readable(); }

  /// True once the peer's FIN has been consumed and all prior data read.
  bool eof() const { return fin_received_ && recv_buf_.readable() == 0; }

  // --- Lifecycle -------------------------------------------------------------

  /// Half-close: no more sends; a FIN follows the last buffered byte.
  void close();

  /// Abortive close: sends RST, discards state.
  void abort();

  TcpState state() const { return state_; }
  TcpError error() const { return error_; }
  const TcpStats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }
  sim::Endpoint local() const { return local_; }
  sim::Endpoint remote() const { return remote_; }

  /// Current congestion window in bytes (diagnostics).
  std::uint64_t cwnd() const { return cwnd_; }
  /// Current slow-start threshold in bytes (diagnostics).
  std::uint64_t ssthresh() const { return ssthresh_; }
  /// Unacknowledged bytes in flight (sequence space).
  std::uint64_t flight_size() const { return snd_nxt_ - snd_una_; }
  /// Current retransmission timeout.
  util::SimDuration rto() const;

  /// Install packet trace hooks (see trace::TraceRecorder).
  void set_packet_out_hook(PacketOutHook h) { out_hook_ = std::move(h); }
  void set_packet_in_hook(PacketInHook h) { in_hook_ = std::move(h); }

  /// Attach a metrics bundle (see metrics::TcpConnMetrics); the bundle must
  /// outlive the socket's traffic. Null detaches.
  void set_metrics(metrics::TcpConnMetrics* m) { metrics_ = m; }

  /// Current simulated time (convenience for trace capture and apps).
  util::SimTime now() const;

 private:
  friend class TcpStack;

  /// In-flight segment bookkeeping for RTT sampling and retransmission.
  struct Segment {
    std::uint64_t seq = 0;       ///< first sequence number
    std::uint32_t len = 0;       ///< sequence-space length (SYN/FIN count 1)
    util::SimTime send_time = 0;
    bool retransmitted = false;
  };

  TcpSocket(TcpStack& stack, sim::Endpoint local, sim::Endpoint remote,
            const TcpConfig& config, bool active_open);

  // Event entry points (called by the stack / timers).
  void start_connect();
  void start_passive(std::uint64_t peer_syn_seq);
  void handle_packet(sim::Packet&& p);
  void on_rto_timer();
  void on_delack_timer();
  void on_persist_timer();

  // Sender machinery.
  void maybe_send();
  void send_segment(std::uint64_t seq, std::uint32_t payload_len,
                    std::uint8_t flags, bool retransmit);
  void retransmit_one(std::uint64_t seq);
  void retransmit_range(std::uint64_t seq, std::uint32_t max_len);
  void enter_recovery();
  void handle_ack(const sim::Packet& p);

  // SACK machinery (RFC 2018 scoreboard + conservative RFC 6675 recovery).
  bool merge_peer_sack(const sim::Packet& p);  ///< returns "new info arrived"
  std::uint64_t sack_pipe() const;  ///< estimated bytes still in the network
  void send_in_recovery();          ///< hole retransmits + new data by pipe
  void take_rtt_sample(util::SimDuration sample);
  /// Record (cwnd, ssthresh) into the attached metrics bundle, if any.
  void sample_cwnd_metrics();
  void arm_rto();
  void cancel_rto();
  void arm_persist();
  void cancel_persist();

  // Receiver machinery.
  void handle_data(const sim::Packet& p);
  void send_ack_now();
  void schedule_delack();
  std::uint64_t current_rcv_ack() const;  ///< ack field we would send
  std::uint64_t current_window() const;
  void maybe_send_window_update();

  // Lifecycle helpers.
  /// All state changes funnel through here: the edge is validated against
  /// tcp_transition_table() (a forbidden transition aborts).
  void set_state(TcpState to);
  void become_established();
  void check_fin_acked(std::uint64_t ack);
  void maybe_finish_close();
  void fail(TcpError err);
  void emit(sim::Packet&& p, bool retransmit);
  void notify_readable();

  TcpStack& stack_;
  sim::Endpoint local_;
  sim::Endpoint remote_;
  TcpConfig config_;
  TcpState state_ = TcpState::kClosed;
  TcpError error_ = TcpError::kNone;
  TcpStats stats_;

  SendBuffer send_buf_;
  RecvBuffer recv_buf_;

  // Sequence space (64-bit, never wraps): SYN = 0, data byte k = k + 1,
  // FIN = stream length + 1.
  std::uint64_t snd_una_ = 0;  ///< oldest unacknowledged
  std::uint64_t snd_nxt_ = 0;  ///< next to send
  std::uint64_t snd_max_ = 0;  ///< highest ever sent + 1
  util::Ring<Segment> inflight_;

  // Congestion control.
  std::uint64_t cwnd_ = 0;
  std::uint64_t ssthresh_ = 0;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recovery_point_ = 0;
  double cwnd_frac_ = 0.0;  ///< sub-MSS congestion-avoidance accumulator

  // Peer flow control.
  std::uint64_t peer_wnd_ = 0;        ///< last advertised window
  std::uint64_t peer_wnd_edge_ = 0;   ///< snd_una + peer window at last ACK

  // RTT estimation (Jacobson/Karels) & timers.
  bool have_rtt_ = false;
  double srtt_ns_ = 0.0;
  double rttvar_ns_ = 0.0;
  std::uint32_t rto_backoff_ = 0;  ///< consecutive backoffs (shift count)
  std::uint32_t syn_retries_ = 0;
  util::EventId rto_timer_ = util::kInvalidEvent;
  util::EventId delack_timer_ = util::kInvalidEvent;
  util::EventId persist_timer_ = util::kInvalidEvent;
  std::uint32_t persist_backoff_ = 0;

  // SACK state.
  util::IntervalSet sacked_;    ///< peer-reported received ranges (seq space)
  util::IntervalSet retx_rec_;  ///< ranges retransmitted in this recovery
  /// SACK blocks we advertise (seq space), most recently changed first.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rcv_sack_blocks_;

  // Receiver state.
  bool fin_received_ = false;          ///< peer FIN consumed in order
  bool have_remote_fin_ = false;       ///< peer FIN seen (maybe out of order)
  std::uint64_t remote_fin_seq_ = 0;   ///< sequence number of peer FIN
  std::uint32_t segs_since_ack_ = 0;
  std::uint64_t advertised_wnd_ = 0;   ///< window in the last ACK we sent

  // Sender close state.
  bool fin_pending_ = false;  ///< close() called; FIN follows last data
  bool fin_sent_ = false;
  std::uint64_t fin_seq_ = 0;
  bool fin_acked_ = false;
  bool closed_notified_ = false;

  PacketOutHook out_hook_;
  PacketInHook in_hook_;
  metrics::TcpConnMetrics* metrics_ = nullptr;
};

}  // namespace lsl::tcp
