#include "md5/md5.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace lsl::md5 {
namespace {

constexpr std::uint32_t rotl(std::uint32_t x, std::uint32_t c) {
  return (x << c) | (x >> (32 - c));
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// The four step functions of RFC 1321 section 3.4. `xk` is the message
// word plus the sine constant: it is added to `a` before the round
// function, so that sum is off the b -> a dependency chain. F and G are the
// RFC's bit selections written with fewer dependent operations; G's two
// terms are disjoint, so they add instead of OR.
inline void ff(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t xk, std::uint32_t s) {
  a += xk;
  a += d ^ (b & (c ^ d));
  a = rotl(a, s) + b;
}

inline void gg(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t xk, std::uint32_t s) {
  a += xk;
  a += (~d & c) + (d & b);
  a = rotl(a, s) + b;
}

inline void hh(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t xk, std::uint32_t s) {
  a += xk;
  a += b ^ c ^ d;
  a = rotl(a, s) + b;
}

inline void ii(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t xk, std::uint32_t s) {
  a += xk;
  a += c ^ (b | ~d);
  a = rotl(a, s) + b;
}

/// A 32-bit word per lane.
template <std::size_t L>
using Words = std::array<std::uint32_t, L>;

/// One MD5 step in every lane: lane I runs `round` on its own words with
/// message word `g` of its own block. The fold expands one copy per lane,
/// so the compiler keeps every lane's words in registers (a runtime loop
/// over the lanes leaves them in memory); always_inline keeps g++ from
/// outlining a step and spilling them across the call.
template <auto round, std::size_t... I, std::size_t L = sizeof...(I)>
[[gnu::always_inline]] inline void step(
    std::index_sequence<I...>, Words<L>& a, const Words<L>& b,
    const Words<L>& c, const Words<L>& d,
    const std::array<const std::uint8_t*, L>& block, std::size_t g,
    std::uint32_t k, std::uint32_t s) {
  (round(a[I], b[I], c[I], d[I], load_le32(block[I] + 4 * g) + k, s), ...);
}

/// The RFC 1321 block function over L independent messages in lockstep:
/// one 64-byte block of each, folded into its own state. Scalar MD5 is a
/// single dependency chain; a second lane fills the issue slots the first
/// leaves idle.
template <std::size_t L>
void compress(const std::array<std::array<std::uint32_t, 4>*, L>& state,
              const std::array<const std::uint8_t*, L>& block) {
  constexpr auto lanes = std::make_index_sequence<L>{};
  Words<L> a, b, c, d;
  for (std::size_t i = 0; i < L; ++i) {
    a[i] = (*state[i])[0];
    b[i] = (*state[i])[1];
    c[i] = (*state[i])[2];
    d[i] = (*state[i])[3];
  }

  // Round 1.
  step<ff>(lanes, a, b, c, d, block, 0, 0xd76aa478u, 7);
  step<ff>(lanes, d, a, b, c, block, 1, 0xe8c7b756u, 12);
  step<ff>(lanes, c, d, a, b, block, 2, 0x242070dbu, 17);
  step<ff>(lanes, b, c, d, a, block, 3, 0xc1bdceeeu, 22);
  step<ff>(lanes, a, b, c, d, block, 4, 0xf57c0fafu, 7);
  step<ff>(lanes, d, a, b, c, block, 5, 0x4787c62au, 12);
  step<ff>(lanes, c, d, a, b, block, 6, 0xa8304613u, 17);
  step<ff>(lanes, b, c, d, a, block, 7, 0xfd469501u, 22);
  step<ff>(lanes, a, b, c, d, block, 8, 0x698098d8u, 7);
  step<ff>(lanes, d, a, b, c, block, 9, 0x8b44f7afu, 12);
  step<ff>(lanes, c, d, a, b, block, 10, 0xffff5bb1u, 17);
  step<ff>(lanes, b, c, d, a, block, 11, 0x895cd7beu, 22);
  step<ff>(lanes, a, b, c, d, block, 12, 0x6b901122u, 7);
  step<ff>(lanes, d, a, b, c, block, 13, 0xfd987193u, 12);
  step<ff>(lanes, c, d, a, b, block, 14, 0xa679438eu, 17);
  step<ff>(lanes, b, c, d, a, block, 15, 0x49b40821u, 22);

  // Round 2.
  step<gg>(lanes, a, b, c, d, block, 1, 0xf61e2562u, 5);
  step<gg>(lanes, d, a, b, c, block, 6, 0xc040b340u, 9);
  step<gg>(lanes, c, d, a, b, block, 11, 0x265e5a51u, 14);
  step<gg>(lanes, b, c, d, a, block, 0, 0xe9b6c7aau, 20);
  step<gg>(lanes, a, b, c, d, block, 5, 0xd62f105du, 5);
  step<gg>(lanes, d, a, b, c, block, 10, 0x02441453u, 9);
  step<gg>(lanes, c, d, a, b, block, 15, 0xd8a1e681u, 14);
  step<gg>(lanes, b, c, d, a, block, 4, 0xe7d3fbc8u, 20);
  step<gg>(lanes, a, b, c, d, block, 9, 0x21e1cde6u, 5);
  step<gg>(lanes, d, a, b, c, block, 14, 0xc33707d6u, 9);
  step<gg>(lanes, c, d, a, b, block, 3, 0xf4d50d87u, 14);
  step<gg>(lanes, b, c, d, a, block, 8, 0x455a14edu, 20);
  step<gg>(lanes, a, b, c, d, block, 13, 0xa9e3e905u, 5);
  step<gg>(lanes, d, a, b, c, block, 2, 0xfcefa3f8u, 9);
  step<gg>(lanes, c, d, a, b, block, 7, 0x676f02d9u, 14);
  step<gg>(lanes, b, c, d, a, block, 12, 0x8d2a4c8au, 20);

  // Round 3.
  step<hh>(lanes, a, b, c, d, block, 5, 0xfffa3942u, 4);
  step<hh>(lanes, d, a, b, c, block, 8, 0x8771f681u, 11);
  step<hh>(lanes, c, d, a, b, block, 11, 0x6d9d6122u, 16);
  step<hh>(lanes, b, c, d, a, block, 14, 0xfde5380cu, 23);
  step<hh>(lanes, a, b, c, d, block, 1, 0xa4beea44u, 4);
  step<hh>(lanes, d, a, b, c, block, 4, 0x4bdecfa9u, 11);
  step<hh>(lanes, c, d, a, b, block, 7, 0xf6bb4b60u, 16);
  step<hh>(lanes, b, c, d, a, block, 10, 0xbebfbc70u, 23);
  step<hh>(lanes, a, b, c, d, block, 13, 0x289b7ec6u, 4);
  step<hh>(lanes, d, a, b, c, block, 0, 0xeaa127fau, 11);
  step<hh>(lanes, c, d, a, b, block, 3, 0xd4ef3085u, 16);
  step<hh>(lanes, b, c, d, a, block, 6, 0x04881d05u, 23);
  step<hh>(lanes, a, b, c, d, block, 9, 0xd9d4d039u, 4);
  step<hh>(lanes, d, a, b, c, block, 12, 0xe6db99e5u, 11);
  step<hh>(lanes, c, d, a, b, block, 15, 0x1fa27cf8u, 16);
  step<hh>(lanes, b, c, d, a, block, 2, 0xc4ac5665u, 23);

  // Round 4.
  step<ii>(lanes, a, b, c, d, block, 0, 0xf4292244u, 6);
  step<ii>(lanes, d, a, b, c, block, 7, 0x432aff97u, 10);
  step<ii>(lanes, c, d, a, b, block, 14, 0xab9423a7u, 15);
  step<ii>(lanes, b, c, d, a, block, 5, 0xfc93a039u, 21);
  step<ii>(lanes, a, b, c, d, block, 12, 0x655b59c3u, 6);
  step<ii>(lanes, d, a, b, c, block, 3, 0x8f0ccc92u, 10);
  step<ii>(lanes, c, d, a, b, block, 10, 0xffeff47du, 15);
  step<ii>(lanes, b, c, d, a, block, 1, 0x85845dd1u, 21);
  step<ii>(lanes, a, b, c, d, block, 8, 0x6fa87e4fu, 6);
  step<ii>(lanes, d, a, b, c, block, 15, 0xfe2ce6e0u, 10);
  step<ii>(lanes, c, d, a, b, block, 6, 0xa3014314u, 15);
  step<ii>(lanes, b, c, d, a, block, 13, 0x4e0811a1u, 21);
  step<ii>(lanes, a, b, c, d, block, 4, 0xf7537e82u, 6);
  step<ii>(lanes, d, a, b, c, block, 11, 0xbd3af235u, 10);
  step<ii>(lanes, c, d, a, b, block, 2, 0x2ad7d2bbu, 15);
  step<ii>(lanes, b, c, d, a, block, 9, 0xeb86d391u, 21);

  for (std::size_t i = 0; i < L; ++i) {
    (*state[i])[0] += a[i];
    (*state[i])[1] += b[i];
    (*state[i])[2] += c[i];
    (*state[i])[3] += d[i];
  }
}

}  // namespace

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  compress<1>({&state_}, {block});
}

std::span<const std::uint8_t> Md5::top_up(std::span<const std::uint8_t> data) {
  if (buffer_len_ == 0) return data;
  const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
  std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
  buffer_len_ += take;
  if (buffer_len_ == buffer_.size()) {
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  return data.subspan(take);
}

void Md5::absorb(std::span<const std::uint8_t> data) {
  while (data.size() >= 64) {
    process_block(data.data());
    data = data.subspan(64);
  }
  if (!data.empty()) {
    std::memcpy(buffer_.data(), data.data(), data.size());
    buffer_len_ = data.size();
  }
}

void Md5::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_len_ += data.size();
  absorb(top_up(data));
}

void Md5::update_pair(Md5& x, std::span<const std::uint8_t> a, Md5& y,
                      std::span<const std::uint8_t> b) {
  // Nothing to pair with: update() has the empty-input early return.
  if (a.empty() || b.empty()) {
    x.update(a);
    y.update(b);
    return;
  }
  x.total_len_ += a.size();
  y.total_len_ += b.size();
  a = x.top_up(a);
  b = y.top_up(b);
  while (a.size() >= 64 && b.size() >= 64) {
    compress<2>({&x.state_, &y.state_}, {a.data(), b.data()});
    a = a.subspan(64);
    b = b.subspan(64);
  }
  x.absorb(a);
  y.absorb(b);
}

void Md5::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Md5::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;

  // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit little-endian
  // bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  update(std::span<const std::uint8_t>(kPad, pad_len));

  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest d;
  for (int i = 0; i < 4; ++i) store_le32(d.bytes.data() + 4 * i, state_[i]);
  return d;
}

std::string Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 15]);
  }
  return out;
}

Digest compute(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.finalize();
}

Digest compute(std::string_view data) {
  Md5 h;
  h.update(data);
  return h.finalize();
}

}  // namespace lsl::md5
