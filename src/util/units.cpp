#include "util/units.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace lsl::util {

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= kGiB && bytes % kGiB == 0) {
    std::snprintf(buf, sizeof(buf), "%lluG",
                  static_cast<unsigned long long>(bytes / kGiB));
  } else if (bytes >= kMiB && bytes % kMiB == 0) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(bytes / kMiB));
  } else if (bytes >= kKiB && bytes % kKiB == 0) {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(bytes / kKiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::optional<std::uint64_t> parse_size(std::string_view text) {
  double mult = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': mult = static_cast<double>(kKiB); break;
      case 'm': case 'M': mult = static_cast<double>(kMiB); break;
      case 'g': case 'G': mult = static_cast<double>(kGiB); break;
      default: break;
    }
    if (mult != 1) text.remove_suffix(1);
  }
  // Digits with at most one decimal point, so strtod can read nothing but
  // a plain fixed-point number.
  const std::size_t point = text.find('.');
  if (text.find_first_of("0123456789") == std::string_view::npos ||
      text.find_first_not_of("0123456789.") != std::string_view::npos ||
      (point != std::string_view::npos &&
       text.find('.', point + 1) != std::string_view::npos)) {
    return std::nullopt;
  }
  const double bytes = std::strtod(std::string(text).c_str(), nullptr) * mult;
  if (!(bytes < 18446744073709551616.0)) return std::nullopt;  // 2^64
  return static_cast<std::uint64_t>(bytes);
}

std::optional<std::uint64_t> parse_count(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::string format_duration(SimDuration d) {
  char buf[64];
  if (d >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%.3fs", to_seconds(d));
  } else if (d >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.3fms", to_millis(d));
  } else if (d >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.3fus",
                  static_cast<double>(d) / static_cast<double>(kMicrosecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(d));
  }
  return buf;
}

}  // namespace lsl::util
