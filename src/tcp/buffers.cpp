#include "tcp/buffers.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace lsl::tcp {

// --- SendBuffer --------------------------------------------------------------

SendBuffer::SendBuffer(std::uint64_t capacity, bool real)
    : capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("SendBuffer: zero capacity");
  if (real) ring_.resize(capacity_);
}

std::size_t SendBuffer::write(std::span<const std::uint8_t> data) {
  assert(real() && "write() requires real mode");
  const std::uint64_t n =
      std::min<std::uint64_t>(data.size(), free_space());
  for (std::uint64_t i = 0; i < n; ++i) {
    ring_[(written_ + i) % capacity_] = data[i];
  }
  written_ += n;
  return static_cast<std::size_t>(n);
}

std::uint64_t SendBuffer::write_virtual(std::uint64_t n) {
  assert(!real() && "write_virtual() requires virtual mode");
  const std::uint64_t take = std::min(n, free_space());
  written_ += take;
  return take;
}

void SendBuffer::ack_to(std::uint64_t offset) {
  if (offset <= acked_) return;
  acked_ = std::min(offset, written_);
}

std::shared_ptr<const std::vector<std::uint8_t>> SendBuffer::slice(
    std::uint64_t offset, std::uint32_t len) const {
  if (!real()) return nullptr;
  assert(offset >= acked_ && offset + len <= written_);
  auto out = std::make_shared<std::vector<std::uint8_t>>(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    (*out)[i] = ring_[(offset + i) % capacity_];
  }
  return out;
}

// --- RecvBuffer --------------------------------------------------------------

RecvBuffer::RecvBuffer(std::uint64_t capacity, bool real)
    : capacity_(capacity), real_(real) {
  if (capacity_ == 0) throw std::invalid_argument("RecvBuffer: zero capacity");
}

std::uint64_t RecvBuffer::window() const {
  const std::uint64_t used = (rcv_nxt_ - app_read_) + ooo_bytes_;
  return used >= capacity_ ? 0 : capacity_ - used;
}

bool RecvBuffer::insert(std::uint64_t offset, std::uint32_t len,
                        std::shared_ptr<const std::vector<std::uint8_t>> data) {
  std::uint64_t start = std::max(offset, rcv_nxt_);
  // Never buffer beyond the space we could ever have advertised; a correct
  // sender respects the window, so this only trims pathological input.
  const std::uint64_t end = std::min(offset + len, app_read_ + capacity_);
  if (end <= start) {
    // Entirely duplicate (or empty): frontier unchanged.
    return false;
  }

  const std::uint64_t old_frontier = rcv_nxt_;

  // Gap-fill: walk the out-of-order chunks in [start, end) and keep only the
  // missing ranges, so the buffer stays non-overlapping. A missing range at
  // the frontier is taken in order at once; one beyond it gets a map node.
  auto it = ooo_.lower_bound(start);
  // A predecessor chunk may cover the beginning of our range.
  if (it != ooo_.begin()) {
    const auto prev = std::prev(it);
    const std::uint64_t prev_end = prev->first + prev->second.len;
    if (prev_end > start) start = prev_end;
  }
  while (start < end) {
    if (it != ooo_.end() && it->first <= start) {
      // An existing chunk covers [it->first, ...); skip past it, taking it
      // in order if the frontier has reached it.
      start = std::max(start, it->first + it->second.len);
      if (it->first == rcv_nxt_) {
        ooo_bytes_ -= it->second.len;
        take_in_order(std::move(it->second));
        it = ooo_.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    const std::uint64_t gap_end =
        it != ooo_.end() ? std::min(end, it->first) : end;
    Chunk c;
    c.len = static_cast<std::uint32_t>(gap_end - start);
    if (real_) {
      if (!data) {
        throw std::invalid_argument("RecvBuffer: real mode requires payload");
      }
      c.data = data;
      c.trim_front = static_cast<std::uint32_t>(start - offset);
    }
    if (start == rcv_nxt_) {
      take_in_order(std::move(c));
    } else {
      ooo_bytes_ += c.len;
      it = ooo_.emplace_hint(it, start, std::move(c));
      ++it;
    }
    start = gap_end;
  }

  advance_frontier();
  return rcv_nxt_ != old_frontier;
}

void RecvBuffer::take_in_order(Chunk&& c) {
  rcv_nxt_ += c.len;
  if (real_) ready_.push_back(std::move(c));
}

void RecvBuffer::advance_frontier() {
  for (auto it = ooo_.begin(); it != ooo_.end() && it->first == rcv_nxt_;
       it = ooo_.erase(it)) {
    ooo_bytes_ -= it->second.len;
    take_in_order(std::move(it->second));
  }
}

std::uint64_t RecvBuffer::consume(std::uint64_t max, std::uint8_t* out) {
  const std::uint64_t n = std::min(max, readable());
  app_read_ += n;
  if (!real_) {
    // Virtual bytes read as zeros.
    if (out != nullptr) std::memset(out, 0, n);
    return n;
  }
  for (std::uint64_t done = 0; done < n;) {
    Chunk& c = ready_.front();
    const std::uint32_t take =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(c.len, n - done));
    if (out != nullptr) {
      std::memcpy(out + done, c.data->data() + c.trim_front, take);
    }
    done += take;
    c.trim_front += take;
    c.len -= take;
    if (c.len == 0) ready_.pop_front();
  }
  return n;
}

std::size_t RecvBuffer::read(std::span<std::uint8_t> out) {
  return static_cast<std::size_t>(consume(out.size(), out.data()));
}

std::uint64_t RecvBuffer::read_virtual(std::uint64_t max) {
  return consume(max, nullptr);
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
RecvBuffer::ooo_block_containing(std::uint64_t offset) const {
  if (offset < rcv_nxt_) return std::nullopt;
  auto it = ooo_.upper_bound(offset);
  if (it == ooo_.begin()) return std::nullopt;
  --it;
  if (offset >= it->first + it->second.len) return std::nullopt;
  // Extend left across adjacent chunks.
  auto lo = it;
  while (lo != ooo_.begin()) {
    auto prev = std::prev(lo);
    if (prev->first + prev->second.len != lo->first) break;
    lo = prev;
  }
  // Extend right across adjacent chunks.
  std::uint64_t end = it->first + it->second.len;
  for (auto next = std::next(it); next != ooo_.end() && next->first == end;
       ++next) {
    end = next->first + next->second.len;
  }
  return std::pair{lo->first, end};
}

}  // namespace lsl::tcp
