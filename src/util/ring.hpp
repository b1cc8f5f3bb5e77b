// A FIFO queue on one contiguous, power-of-two sized vector.
//
// The simulator's per-packet queues (a link's drop-tail buffer and its
// in-flight packets, a node's loopback hop, a depot's copy jobs, an event
// lane's keys) push at the back and pop at the front millions of times a
// run while holding a few to a few hundred elements. std::deque allocates
// and frees a block every few hundred pushes and spreads its elements over
// those blocks; a ring reaches its peak capacity once and then neither
// allocates nor frees. Popped slots keep a moved-from element, so T must be
// default-constructible and move-assignable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace lsl::util {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  T& back() { return buf_[(head_ + size_ - 1) & mask()]; }

  void push_back(T&& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }
  void push_back(const T& v) { push_back(T(v)); }

  /// Remove and return the front element.
  T pop_front() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask();
    --size_;
    return v;
  }

 private:
  std::size_t mask() const { return buf_.size() - 1; }

  void grow() {
    std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & mask()]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lsl::util
