// Units and simulated-time primitives shared across the LSL codebase.
//
// Simulated time is a signed 64-bit count of nanoseconds. Using an integral
// representation keeps the discrete-event simulation exactly deterministic
// (no floating-point drift in event ordering) while covering ~292 years of
// simulated time, far beyond any experiment in this repository.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lsl::util {

/// Simulated time in nanoseconds since the start of the simulation.
using SimTime = std::int64_t;

/// A duration in simulated nanoseconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

/// Construct a duration from floating-point seconds (rounded to ns).
constexpr SimDuration seconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}
/// Construct a duration from floating-point milliseconds.
constexpr SimDuration millis(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}
/// Construct a duration from floating-point microseconds.
constexpr SimDuration micros(double us) {
  return static_cast<SimDuration>(us * static_cast<double>(kMicrosecond));
}

/// Convert a simulated duration to floating-point seconds.
constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}
/// Convert a simulated duration to floating-point milliseconds.
constexpr double to_millis(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

// --- Data sizes -------------------------------------------------------------

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

// --- Data rates -------------------------------------------------------------

/// Link and application data rates, stored as bits per second.
///
/// The paper reports all throughput in Mbit/s; links are likewise specified
/// in bits per second so serialization delays are exact integer arithmetic.
struct DataRate {
  std::uint64_t bits_per_second = 0;

  constexpr DataRate() = default;
  constexpr explicit DataRate(std::uint64_t bps) : bits_per_second(bps) {}

  static constexpr DataRate bps(std::uint64_t v) { return DataRate(v); }
  static constexpr DataRate kbps(double v) {
    return DataRate(static_cast<std::uint64_t>(v * 1e3));
  }
  static constexpr DataRate mbps(double v) {
    return DataRate(static_cast<std::uint64_t>(v * 1e6));
  }
  static constexpr DataRate gbps(double v) {
    return DataRate(static_cast<std::uint64_t>(v * 1e9));
  }

  constexpr double as_mbps() const {
    return static_cast<double>(bits_per_second) / 1e6;
  }

  constexpr bool is_zero() const { return bits_per_second == 0; }

  /// Largest byte count whose bit count times 1e9 fits in 64 bits.
  static constexpr std::uint64_t kMaxBytes64 =
      ~std::uint64_t{0} / (8u * static_cast<std::uint64_t>(kSecond));

  /// Time needed to serialize `bytes` onto a link of this rate.
  constexpr SimDuration transmission_time(std::uint64_t bytes) const {
    if (bits_per_second == 0) return 0;
    // bytes * 8 * 1e9 / bps. Every packet fits the 64-bit product; larger
    // payloads on slow links take a 128-bit intermediate, whose division
    // is a library call. Both floor the same exact quotient. __int128 is a
    // GCC extension; __extension__ keeps -Wpedantic quiet about it.
    if (bytes <= kMaxBytes64) {
      return static_cast<SimDuration>(bytes * 8u *
                                      static_cast<std::uint64_t>(kSecond) /
                                      bits_per_second);
    }
    __extension__ using u128 = unsigned __int128;
    const auto bits = static_cast<u128>(bytes) * 8u;
    const auto ns = bits * static_cast<u128>(kSecond) /
                    static_cast<u128>(bits_per_second);
    return static_cast<SimDuration>(ns);
  }

  friend constexpr bool operator==(DataRate a, DataRate b) {
    return a.bits_per_second == b.bits_per_second;
  }
  friend constexpr auto operator<=>(DataRate a, DataRate b) {
    return a.bits_per_second <=> b.bits_per_second;
  }
};

/// Throughput of `bytes` transferred in `elapsed` simulated time, in Mbit/s.
constexpr double throughput_mbps(std::uint64_t bytes, SimDuration elapsed) {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / 1e6 / to_seconds(elapsed);
}

/// Format a byte count with a human-readable suffix, e.g. "64M", "256K".
std::string format_bytes(std::uint64_t bytes);

/// Parse a byte count: a decimal number, optionally fractional, with an
/// optional binary K/M/G suffix ("4096", "64k", "1.5M"). Anything else is
/// rejected: trailing characters, signs, exponents, hex, inf/nan, and
/// values that do not fit in 64 bits. A fraction of a byte is truncated.
std::optional<std::uint64_t> parse_size(std::string_view text);

/// Parse a whole decimal count ("12"): digits only, fitting in 64 bits.
std::optional<std::uint64_t> parse_count(std::string_view text);

/// Format a simulated duration, e.g. "57.3ms".
std::string format_duration(SimDuration d);

}  // namespace lsl::util
