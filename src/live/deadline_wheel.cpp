#include "live/deadline_wheel.hpp"

#include "util/contract.hpp"

namespace lsl::live {

DeadlineWheel::Token DeadlineWheel::schedule(std::int64_t due, Callback cb) {
  LSL_PRECONDITION(cb != nullptr, "DeadlineWheel::schedule: null callback");
  const Token token = next_token_++;
  queue_.emplace(Key{due, token}, std::move(cb));
  due_by_token_.emplace(token, due);
  return token;
}

bool DeadlineWheel::cancel(Token token) {
  auto it = due_by_token_.find(token);
  if (it == due_by_token_.end()) return false;
  queue_.erase(Key{it->second, token});
  due_by_token_.erase(it);
  return true;
}

std::size_t DeadlineWheel::fire_due(std::int64_t now) {
  std::size_t fired = 0;
  while (!queue_.empty() && queue_.begin()->first.first <= now) {
    auto it = queue_.begin();
    // Detach before invoking: the callback may re-enter schedule()/cancel().
    Callback cb = std::move(it->second);
    due_by_token_.erase(it->first.second);
    queue_.erase(it);
    cb();
    ++fired;
  }
  return fired;
}

}  // namespace lsl::live
