// The benchmark's workloads. Each runs its set-up `Options::setups` times,
// then its timed phase(s) of `Options::seconds` in total, and returns its
// verdict with the metric values by name: the end-to-end metrics when
// untraced, the per-layer metrics when traced. main.cpp owns the metric
// tables (names, units, output order).
#pragma once

#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double md5_mb_per_s = 0.0;  ///< set-up gauge, for the fingerprint line
  std::map<std::string, double> values;
};

/// bulk, small and resume: real sockets over loopback through one depot.
Outcome run_loopback(const Options& opt);

/// sim: figure points of the paper's Case-1 path on the simulator.
Outcome run_sim(const Options& opt);

/// Print the sim fidelity table for the current model (C++ initializer
/// rows), for when a change alters the model on purpose.
int print_sim_table();

/// ns per encode_header + decode_header round trip of a one-hop header.
double header_codec_ns();

}  // namespace perfbench
