// ShardThread: the one sanctioned std::thread wrapper in src/.
//
// The repository-wide thread-discipline rule (tools/lsl_lint) bans bare
// std::thread under src/ so cross-thread protocols are forced through the
// model-checked Sync seam rather than grown ad hoc. Shards still need a
// real OS thread to run their EpollEngine on, and this wrapper is the
// single carve-out the lint rule grants: join-on-destruction semantics
// (no detached threads, no std::terminate from a forgotten join), nothing
// else. Everything the shard thread *shares* — post queues, drain gates,
// budgets, stats boards — lives behind Sync-templated types that the
// model checker explores.
#pragma once

#include <functional>
#include <thread>
#include <utility>

namespace lsl::engine {

/// Join-on-destruction OS thread. Move-only.
class ShardThread {
 public:
  ShardThread() = default;
  explicit ShardThread(std::function<void()> body)
      : thread_(std::move(body)) {}
  ~ShardThread() { join(); }

  ShardThread(const ShardThread&) = delete;
  ShardThread& operator=(const ShardThread&) = delete;
  ShardThread(ShardThread&& other) noexcept
      : thread_(std::move(other.thread_)) {}
  ShardThread& operator=(ShardThread&& other) noexcept {
    if (this != &other) {
      join();
      thread_ = std::move(other.thread_);
    }
    return *this;
  }

  bool joinable() const { return thread_.joinable(); }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace lsl::engine
