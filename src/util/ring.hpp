// A FIFO queue on one contiguous, power-of-two sized vector.
//
// The simulator's per-packet queues (a link's packets from enqueue to
// delivery, a node's loopback hop, a TCP sender's in-flight segments and a
// receiver's in-order bytes, a depot's copy jobs, an event lane's keys) push
// at the back and pop at the front millions of times a run while holding a
// few to a few thousand elements. std::deque allocates
// and frees a block every few hundred pushes and spreads its elements over
// those blocks; a ring reaches its peak capacity once and then neither
// allocates nor frees. Popped slots keep a moved-from element, so T must be
// default-constructible and move-assignable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
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
  /// The i-th element from the front; requires i < size().
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask()];
  }

  void push_back(T&& v) { push_back_slot() = std::move(v); }
  void push_back(const T& v) { push_back(T(v)); }

  /// Append a slot and return it for the caller to fill in place. The slot
  /// holds a default or moved-from element, so assign every field.
  T& push_back_slot() {
    if (size_ == buf_.size()) grow();
    return buf_[(head_ + size_++) & mask()];
  }

  void push_front(T&& v) {
    if (size_ == buf_.size()) grow();
    head_ = (head_ + buf_.size() - 1) & mask();
    buf_[head_] = std::move(v);
    ++size_;
  }

  /// Remove and return the front element.
  T pop_front() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask();
    --size_;
    return v;
  }

  /// Drop every element (each slot is reset, so none keeps a resource).
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T();
    head_ = 0;
    size_ = 0;
  }

  /// The elements in FIFO order as one span, rotating the storage first if
  /// they wrap (for in-place algorithms such as std::sort).
  std::span<T> contiguous() {
    if (head_ + size_ > buf_.size()) {
      std::rotate(buf_.begin(),
                  buf_.begin() + static_cast<std::ptrdiff_t>(head_), buf_.end());
      head_ = 0;
    }
    return {buf_.data() + head_, size_};
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
