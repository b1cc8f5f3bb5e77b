// Shared TCP model configuration and state definitions.
#pragma once

#include <cstdint>

#include "sim/packet.hpp"
#include "util/contract.hpp"
#include "util/units.hpp"

namespace lsl::tcp {

/// Tunable parameters of one TCP connection.
///
/// Defaults match the paper's measurement configuration: Linux 2.4-era
/// Reno/NewReno with RFC 1323 large windows, 8 MB socket buffers, MSS 1448,
/// initial congestion window of 2 segments, 200 ms minimum RTO and standard
/// delayed ACKs.
struct TcpConfig {
  std::uint32_t mss = sim::kDefaultMss;       ///< max segment payload, bytes
  std::uint64_t send_buffer = 8 * util::kMiB; ///< sender socket buffer
  std::uint64_t recv_buffer = 8 * util::kMiB; ///< advertised-window ceiling
  std::uint32_t initial_cwnd_segments = 2;    ///< RFC 2581 initial window
  /// Initial slow-start threshold in bytes; 0 means "effectively infinite"
  /// (RFC 5681 first-connection behaviour). Linux 2.4 cached ssthresh per
  /// destination route, so repeated transfers along a measured path — the
  /// paper's methodology — start slow-start with a realistic ceiling; the
  /// experiment scenarios set this to model warmed route metrics.
  std::uint64_t initial_ssthresh = 0;
  std::uint32_t dupack_threshold = 3;         ///< fast-retransmit trigger
  /// Selective acknowledgments (RFC 2018 + conservative RFC 6675 recovery).
  /// On by default — the paper's Linux 2.4 endpoints negotiated SACK.
  /// Without it, recovery is NewReno (RFC 2582 partial ACKs); the
  /// SACK-vs-NewReno difference is measured by bench/abl_sack.
  bool sack = true;
  /// Delayed ACKs: every 2nd segment, or this long after the first.
  util::SimDuration delayed_ack_timeout = util::millis(40);
  util::SimDuration min_rto = util::millis(200);   ///< Linux floor
  util::SimDuration max_rto = util::seconds(60);
  util::SimDuration initial_rto = util::seconds(3);  ///< pre-sample RTO
  std::uint32_t max_syn_retries = 5;
  /// Consecutive unanswered data RTOs before the connection is declared
  /// dead (Linux tcp_retries2-style bound).
  std::uint32_t max_data_retries = 15;
  /// Carry real payload bytes through the network (tests / MD5 path) rather
  /// than virtual byte counts (large sweeps).
  bool carry_data = false;
};

/// Connection life-cycle states (RFC 793 subset; TIME_WAIT is collapsed
/// into kClosed since the simulator never reuses 4-tuples within 2*MSL).
enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kClosing,
  kCloseWait,
  kLastAck,
};

/// Terminal error causes surfaced to the application.
enum class TcpError {
  kNone,
  kConnectTimeout,  ///< SYN retries exhausted
  kReset,           ///< RST received
  kTimedOut,        ///< too many data RTOs (peer unreachable)
};

/// Human-readable state name (diagnostics).
const char* to_string(TcpState s);

/// Number of TcpState values (TransitionTable dimension).
inline constexpr std::size_t kTcpStateCount = 9;

/// The legal RFC 793 edges of the connection state machine, as implemented
/// here (TIME_WAIT collapsed into kClosed; abortive close legal from every
/// live state). TcpSocket validates every state change against this table;
/// a transition outside it aborts via the contract framework.
const util::TransitionTable<TcpState, kTcpStateCount>& tcp_transition_table();

/// Human-readable error name (diagnostics).
const char* to_string(TcpError e);

/// Per-connection counters exposed to experiments and tests.
struct TcpStats {
  std::uint64_t segments_sent = 0;       ///< data-bearing segments sent
  std::uint64_t segments_received = 0;   ///< data-bearing segments received
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t retransmits = 0;         ///< segments re-sent (any cause)
  std::uint64_t fast_retransmits = 0;    ///< dupack-triggered recoveries
  std::uint64_t recovery_episodes = 0;   ///< distinct fast-recovery entries
  std::uint64_t timeouts = 0;            ///< RTO expirations
  std::uint64_t bytes_sent = 0;          ///< unique stream bytes first-sent
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_received = 0;      ///< in-order stream bytes received
  std::uint64_t rtt_samples = 0;
  util::SimDuration srtt = 0;            ///< smoothed RTT estimate
  util::SimDuration min_rtt = 0;         ///< smallest valid sample
};

}  // namespace lsl::tcp
