// Shared pieces of the benchmark: options, the result line, clocks,
// order statistics, the in-memory span log, and the set-up gauge that
// pre-generates and hashes the payload.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "md5/md5.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options (see run.py for the contract they implement).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Correctness-gate self-test to stage: "corrupt" (small), "uncounted-reset"
  /// (resume) or "model-drift" (sim). Empty for a normal run.
  std::string selftest;
  /// Where a traced run writes its spans (JSON lines); empty = keep in memory.
  std::string spans_out;
  /// Set-ups per run; setup_s is their median.
  int setups = 5;
};

/// The benchmark's one result line.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
  std::string to_json() const;
};

double seconds_between(Clock::time_point a, Clock::time_point b);
std::int64_t now_ns();

/// CPU seconds consumed so far by the thread whose CPU clock is `clock`.
double cpu_seconds(clockid_t clock);
/// The calling thread's CPU clock.
clockid_t this_thread_cpu_clock();

/// CPUs this process may run on (what `nproc` prints).
unsigned usable_cpus();

/// Peak resident set size of the process, MiB.
double peak_rss_mib();

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// One span recorded by the benchmark around a call into a layer. Spans of
/// one session share `id`; `parent` names the span that caused it (0 = root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Bounded in-memory span store; spans past the capacity are counted, not
/// kept, so a long traced run cannot grow without bound.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 1u << 20) : capacity_(capacity) {}

  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start_ns, std::int64_t end_ns);
  void append(const SpanLog& other);
  /// Durations (ms) of every kept span named `name`.
  std::vector<double> durations_ms(const char* name) const;
  /// Write one JSON object per span (and note any dropped on stderr);
  /// returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Set-up work every workload does: generate `bytes` of the seeded payload
/// stream and hash them. The stream is what loopback sources send, and the
/// two rates are the host-weather gauges printed with every result.
struct Gauge {
  std::vector<std::uint8_t> stream;
  lsl::md5::Digest digest;
  double gen_mb_per_s = 0.0;
  double md5_mb_per_s = 0.0;
};
Gauge run_gauge(std::uint64_t seed, std::size_t bytes, SpanLog* spans);

/// Size of the gauge stream (and the largest session payload).
inline constexpr std::size_t kGaugeBytes = 16u << 20;

/// `{"fingerprint": {...}}`: nproc, kernel, CPU model and the MD5 gauge.
std::string fingerprint_json(double md5_mb_per_s);

inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = kMiB * 1024.0;

}  // namespace perfbench
