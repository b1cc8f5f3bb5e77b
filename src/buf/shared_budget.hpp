// SharedBudget: one MemoryBudget shared by several shard-local pools.
//
// The sharded daemon gives every shard its own ChunkPool (freelists and
// counters stay contention-free on the relay fast path) but the operator
// still configures ONE memory ceiling for the process. This facade wraps
// the deliberately-not-thread-safe MemoryBudget in a Sync-policy mutex so
// N pools can reserve() and release() against the same watermarked
// accounting.
//
// Lock order: a pool calls in with its own mu_ already held, so the
// repository-wide order is pool mutex → budget mutex; the budget never
// calls out while holding its lock (tools/lsl_lint lock-order rule).
//
// Correctness across shards — reservations never exceed the ceiling, a
// release is never lost, the pressure hysteresis sees every edge — is
// explored exhaustively by the model checker (src/check/suite.cpp
// scenario "buf_shared_budget") rather than sampled under TSan.
#pragma once

#include <cstdint>

#include "buf/budget.hpp"
#include "check/shim.hpp"

namespace lsl::buf {

/// Thread-safe facade over one MemoryBudget.
template <typename Sync>
class BasicSharedBudget {
 public:
  BasicSharedBudget() = default;
  BasicSharedBudget(std::uint64_t budget_bytes, double low_watermark,
                    double high_watermark)
      : budget_(budget_bytes, low_watermark, high_watermark) {}

  BasicSharedBudget(const BasicSharedBudget&) = delete;
  BasicSharedBudget& operator=(const BasicSharedBudget&) = delete;

  /// MemoryBudget::reserve under the lock; see its contract (force is the
  /// salvage path's may-overshoot escape hatch).
  bool reserve(std::uint64_t n, bool force = false) {
    typename Sync::lock_guard lock(mu_);
    return budget_.reserve(n, force);
  }

  void release(std::uint64_t n) {
    typename Sync::lock_guard lock(mu_);
    budget_.release(n);
  }

  bool enabled() const {
    typename Sync::lock_guard lock(mu_);
    return budget_.enabled();
  }
  std::uint64_t budget() const {
    typename Sync::lock_guard lock(mu_);
    return budget_.budget();
  }
  std::uint64_t in_use() const {
    typename Sync::lock_guard lock(mu_);
    return budget_.in_use();
  }
  std::uint64_t peak() const {
    typename Sync::lock_guard lock(mu_);
    return budget_.peak();
  }
  std::uint64_t headroom() const {
    typename Sync::lock_guard lock(mu_);
    return budget_.headroom();
  }
  bool under_pressure() const {
    typename Sync::lock_guard lock(mu_);
    return budget_.under_pressure();
  }
  std::uint64_t pressure_episodes() const {
    typename Sync::lock_guard lock(mu_);
    return budget_.pressure_episodes();
  }

 private:
  mutable typename Sync::mutex mu_;
  MemoryBudget budget_;
};

/// Production alias.
using SharedBudget = BasicSharedBudget<check::StdSync>;

}  // namespace lsl::buf
