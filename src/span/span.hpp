// Span-based session tracing: the per-flow complement to src/metrics.
//
// Metrics aggregate ("how many bytes did lsd.9001 relay?"); spans attribute
// ("where did session 7f3a spend its time across the chain?"). A source
// mints a 64-bit trace id, the wire header carries it hop to hop (see
// src/lsl/wire.hpp, version 2), and every depot a session crosses records
// its lifecycle phases — accept, header read, dial, stream windows,
// park/salvage/resume, drain — against that id. tools/lsl_spans joins the
// per-depot dumps into one end-to-end timeline.
//
// The subsystem follows the repo's shared-substrate rules:
//
//  * one implementation serves the simulator and the posix daemon; the
//    tracer is clock-agnostic (callers pass seconds in their own timebase,
//    simulated or wall);
//  * default-off: nothing records unless a Tracer is attached, and with
//    tracing off same-seed sim metric exports stay byte-identical
//    (tested in tests/span_test.cpp);
//  * O(1) hot path: records land in a bounded lock-free ring (the
//    **flight recorder**) that overwrites the oldest entries, so a
//    long-running daemon keeps the recent past at fixed memory cost and a
//    crash dump is always available (post-mortem flight recording).
//
// Span names are static string literals namespaced `span.*`; the
// `span-names-docs` lint rule ties every name used in code to the span
// catalogue in docs/OBSERVABILITY.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/shim.hpp"

namespace lsl::span {

// Catalogued span names, defined once so the simulator and the posix
// daemon emit byte-identical vocabularies. Every name here must have a row
// in docs/OBSERVABILITY.md's span catalogue (lint rule `span-names-docs`).
inline constexpr const char* kSpanAccept = "span.accept";
inline constexpr const char* kSpanHeaderRead = "span.header_read";
inline constexpr const char* kSpanDial = "span.dial";
inline constexpr const char* kSpanStreamWindow = "span.stream_window";
inline constexpr const char* kSpanPark = "span.park";
inline constexpr const char* kSpanSalvage = "span.salvage";
inline constexpr const char* kSpanResume = "span.resume";
inline constexpr const char* kSpanDrain = "span.drain";

// Lane-indexed stream-window names for striped sessions (wire version 3):
// each lane's windows carry its stripe id so tools/lsl_spans can render a
// striped transfer as parallel lanes. SpanRecord::name must be a static
// literal, so the sixteen possible lanes (wire kMaxStripes) are enumerated
// rather than formatted; every entry is catalogued in OBSERVABILITY.md.
inline constexpr const char* kSpanStreamWindowLane[] = {
    "span.stream_window.s0",  "span.stream_window.s1",
    "span.stream_window.s2",  "span.stream_window.s3",
    "span.stream_window.s4",  "span.stream_window.s5",
    "span.stream_window.s6",  "span.stream_window.s7",
    "span.stream_window.s8",  "span.stream_window.s9",
    "span.stream_window.s10", "span.stream_window.s11",
    "span.stream_window.s12", "span.stream_window.s13",
    "span.stream_window.s14", "span.stream_window.s15",
};

/// The stream-window span name for a relay: lane-indexed when the session
/// is striped (stripe_lane in [0, 16)), the bare name otherwise.
inline constexpr const char* stream_window_name(int stripe_lane) {
  return stripe_lane >= 0 && stripe_lane < 16
             ? kSpanStreamWindowLane[stripe_lane]
             : kSpanStreamWindow;
}

/// Stream progress granularity: one span.stream_window closes per this
/// many relayed bytes (plus a final partial window at session end), so the
/// hot path pays one comparison per chunk regardless of transfer size.
inline constexpr std::uint64_t kStreamWindowBytes = 1ull << 20;

/// One recorded span: a named interval (or instant, when end == start) of a
/// traced session's life on one node. Fixed-size and trivially copyable so
/// the flight recorder's slots never allocate; `name` must be a static
/// string literal (the catalogued `span.*` names).
struct SpanRecord {
  std::uint64_t trace_id = 0;   ///< wire-carried join key (0 = untraced)
  const char* name = nullptr;   ///< static literal, e.g. "span.dial"
  double start = 0.0;           ///< seconds, caller's timebase
  double end = 0.0;             ///< seconds; == start for instant marks
  std::uint64_t bytes = 0;      ///< byte-progress mark (stream windows)
};

/// Bounded lock-free ring of SpanRecord slots — the flight recorder.
///
/// Writers claim a slot with one fetch_add and one exchange, fill it, and
/// release it with one store: O(1), allocation-free, and safe from any
/// number of threads. When the ring laps itself the oldest records are
/// overwritten (that is the point: keep the recent past, always). The one
/// sacrifice contention can force is a *drop*: if two writers land on the
/// same slot simultaneously the loser abandons the write and bumps
/// dropped() rather than spin — the hot path never waits.
///
/// snapshot() is for quiescent readers: the owning event-loop thread, a
/// post-mortem dump, or tests after joining writers. It skips any slot
/// still mid-write, so calling it concurrently is safe but may miss the
/// newest records.
///
/// Templated over a check::Sync policy: `FlightRecorder` below is the
/// production std::atomic instantiation; the model-check suite explores
/// the claim/fill/release slot protocol under
/// BasicFlightRecorder<check::ModelSync>, with the kChecked invariant that
/// a claimed slot's seq never changes under the claim holder.
template <typename Sync>
class BasicFlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit BasicFlightRecorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(std::max<std::size_t>(capacity, 2)),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  BasicFlightRecorder(const BasicFlightRecorder&) = delete;
  BasicFlightRecorder& operator=(const BasicFlightRecorder&) = delete;

  /// Record `r` (O(1), lock-free, never blocks). May drop under slot
  /// contention; see dropped().
  void record(const SpanRecord& r) noexcept {
    const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket % capacity_];
    // Claim the slot. exchange() is the arbiter: exactly one writer sees the
    // previous published value; a second writer lapping onto the same slot
    // mid-write sees kSlotBusy and abandons (a counted drop) instead of
    // spinning — the hot path never waits.
    const std::uint64_t prev =
        s.seq.exchange(kSlotBusy, std::memory_order_acquire);
    if (prev == kSlotBusy) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    s.rec = r;
    if constexpr (Sync::kChecked) {
      // Publication must find the slot exactly as we claimed it: anyone
      // who wrote seq while we held the claim read/wrote `rec` racily.
      const std::uint64_t held = s.seq.exchange(
          ticket + kSlotFirstSeq, std::memory_order_release);
      check::model_assert(held == kSlotBusy,
                          "recorder slot seq changed while claimed");
    } else {
      s.seq.store(ticket + kSlotFirstSeq, std::memory_order_release);
    }
  }

  /// Copy the retained records into `out` (cleared first), oldest first.
  void snapshot(std::vector<SpanRecord>& out) const {
    out.clear();
    // Read through the same claim protocol as record(): ownership of the
    // slot, not a seqlock, guards `rec`, so a concurrent snapshot is a data
    // race with nobody — at worst a racing writer drops onto the claimed
    // slot, same as writer/writer contention.
    std::vector<std::pair<std::uint64_t, SpanRecord>> kept;
    kept.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      Slot& s = slots_[i];
      const std::uint64_t seq =
          s.seq.exchange(kSlotBusy, std::memory_order_acquire);
      if (seq == kSlotEmpty) {
        s.seq.store(kSlotEmpty, std::memory_order_release);
        continue;
      }
      if (seq == kSlotBusy) continue;  // a writer holds it; skip
      kept.emplace_back(seq, s.rec);
      s.seq.store(seq, std::memory_order_release);
    }
    std::sort(kept.begin(), kept.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out.reserve(kept.size());
    for (const auto& [seq, rec] : kept) out.push_back(rec);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  /// Total record() calls, including overwritten and dropped ones.
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  /// Records abandoned to slot contention (not overwrites — those are by
  /// design and not counted).
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  // Slot protocol: seq == kSlotEmpty (never written), kSlotBusy (a writer
  // holds it), else ticket + kSlotFirstSeq (published; larger = newer).
  static constexpr std::uint64_t kSlotEmpty = 0;
  static constexpr std::uint64_t kSlotBusy = 1;
  static constexpr std::uint64_t kSlotFirstSeq = 2;

  struct Slot {
    typename Sync::template atomic<std::uint64_t> seq{kSlotEmpty};
    SpanRecord rec;
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  typename Sync::template atomic<std::uint64_t> next_{0};
  typename Sync::template atomic<std::uint64_t> dropped_{0};
};

// The production instantiation is compiled once in span.cpp.
extern template class BasicFlightRecorder<check::StdSync>;

/// Production alias — the pre-seam name every call site uses.
using FlightRecorder = BasicFlightRecorder<check::StdSync>;

/// A named span source: one per process/depot, owning a flight recorder.
///
/// The name identifies the node in merged timelines ("lsd.9001",
/// "depot2"); the merge tool keys hops on it. Attach a Tracer* to an Lsd
/// or DepotApp the same way a metrics bundle is attached; nullptr (the
/// default) keeps tracing off with zero cost beyond one branch.
class Tracer {
 public:
  explicit Tracer(std::string source,
                  std::size_t capacity = FlightRecorder::kDefaultCapacity)
      : source_(std::move(source)), recorder_(capacity) {}

  const std::string& source() const { return source_; }
  /// Rename the source, e.g. once the daemon's ephemeral port is bound.
  /// Emitters never read the name, so this is safe while they run; only
  /// dumps and the post-mortem hook (which read it) must come after.
  void set_source(std::string source) { source_ = std::move(source); }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  /// Record a completed interval span.
  void emit(std::uint64_t trace_id, const char* name, double start,
            double end, std::uint64_t bytes = 0) noexcept {
    recorder_.record({trace_id, name, start, end, bytes});
  }

  /// Record an instant mark (end == start).
  void mark(std::uint64_t trace_id, const char* name, double at,
            std::uint64_t bytes = 0) noexcept {
    recorder_.record({trace_id, name, at, at, bytes});
  }

 private:
  std::string source_;
  FlightRecorder recorder_;
};

/// Dump the recorder's retained spans as JSONL, one record per line:
///   {"trace":"00000000075bcd15","span":"span.dial","src":"lsd.9001",
///    "start":0.00123,"end":0.00345,"bytes":0}
/// The format tools/lsl_spans merges. Caller rules follow snapshot().
void dump_jsonl(const Tracer& tracer, std::ostream& out);

/// dump_jsonl to a file; false on I/O error.
bool dump_file(const Tracer& tracer, const std::string& path);

/// Register `tracer` for a post-mortem dump to `path` when a contract
/// aborts (util::contract_fail / transition_fail): the flight recorder's
/// last-moments view survives the crash. Pass nullptr to unregister.
/// One registration per process; the hook is async-signal-unsafe by
/// design (contract aborts are synchronous, not signal handlers).
void install_post_mortem(const Tracer* tracer, std::string path);

/// Mint a trace id from a seed; never returns 0 (0 means "untraced" on
/// the wire). Deterministic — the simulator derives ids from run seeds so
/// traced runs stay reproducible.
std::uint64_t mint_trace_id(std::uint64_t seed) noexcept;

}  // namespace lsl::span
