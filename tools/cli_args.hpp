// Strict whole-number option values for the command-line tools: a value
// that is not entirely digits, or lies outside its range, is reported by
// option name and the tool exits 2, instead of atoi/strtoull reading a
// prefix ("2x" as 2) and running with it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>

#include "util/units.hpp"

namespace lsl::cli {

/// Read `v`, the value of option `name`, into *out as a whole number in
/// [lo, hi]. On failure prints "<prog>: <name> must be ..." to stderr and
/// returns false; *out is then unchanged.
template <typename T>
bool read_count(const char* prog, const char* name, const char* v, T* out,
                std::uint64_t lo = 0,
                std::uint64_t hi = std::numeric_limits<T>::max()) {
  const auto n = util::parse_count(v);
  if (n && *n >= lo && *n <= hi) {
    *out = static_cast<T>(*n);
    return true;
  }
  if (hi == std::numeric_limits<std::uint64_t>::max()) {
    std::fprintf(stderr, "%s: %s must be a whole number >= %llu, not '%s'\n",
                 prog, name, static_cast<unsigned long long>(lo), v);
  } else {
    std::fprintf(stderr,
                 "%s: %s must be a whole number in %llu..%llu, not '%s'\n",
                 prog, name, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), v);
  }
  return false;
}

}  // namespace lsl::cli
