#include "lsl/payload.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

namespace lsl::core {

void PayloadGenerator::generate(std::span<std::uint8_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t word_index = (position_ + i) / 8;
    const std::uint32_t word_off = static_cast<std::uint32_t>((position_ + i) % 8);
    // splitmix64-style mix of (seed, word index): random access per word.
    std::uint64_t z = mix_ + 0x9e3779b97f4a7c15ull * (word_index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const std::size_t take =
        std::min<std::size_t>(8 - word_off, out.size() - i);
    for (std::size_t b = 0; b < take; ++b) {
      out[i + b] = static_cast<std::uint8_t>(z >> (8 * (word_off + b)));
    }
    i += take;
  }
  position_ += out.size();
}

bool PayloadCheck::feed(std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 4096> expected{};
  while (ok_ && !data.empty()) {
    const std::size_t n = std::min(data.size(), expected.size());
    const std::span<std::uint8_t> block(expected.data(), n);
    expect_.generate(block);
    ok_ = std::memcmp(data.data(), block.data(), n) == 0;
    data = data.subspan(n);
  }
  return ok_;
}

bool PayloadVerifier::feed(std::span<const std::uint8_t> data) {
  hasher_.update(data);
  count(data);
  return ok();
}

void PayloadVerifier::feed_pair(PayloadVerifier& x,
                                std::span<const std::uint8_t> a,
                                PayloadVerifier& y,
                                std::span<const std::uint8_t> b) {
  md5::Md5::update_pair(x.hasher_, a, y.hasher_, b);
  x.count(a);
  y.count(b);
}

void PayloadVerifier::count(std::span<const std::uint8_t> data) {
  if (check_) check_->feed(data);
  verified_ += data.size();
}

md5::Digest PayloadVerifier::hash_copy_digest() const {
  md5::Md5 copy = hasher_;
  return copy.finalize();
}

md5::Digest stream_digest(std::uint64_t seed, std::uint64_t length) {
  PayloadGenerator gen(seed);
  md5::Md5 hash;
  std::vector<std::uint8_t> buf(64 * 1024);
  std::uint64_t remaining = length;
  while (remaining > 0) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(), remaining));
    gen.generate(std::span<std::uint8_t>(buf.data(), take));
    hash.update(std::span<const std::uint8_t>(buf.data(), take));
    remaining -= take;
  }
  return hash.finalize();
}

}  // namespace lsl::core
