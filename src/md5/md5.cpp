#include "md5/md5.hpp"

#include <cstring>

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

}  // namespace

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1.
  ff(a, b, c, d, m[0] + 0xd76aa478u, 7);
  ff(d, a, b, c, m[1] + 0xe8c7b756u, 12);
  ff(c, d, a, b, m[2] + 0x242070dbu, 17);
  ff(b, c, d, a, m[3] + 0xc1bdceeeu, 22);
  ff(a, b, c, d, m[4] + 0xf57c0fafu, 7);
  ff(d, a, b, c, m[5] + 0x4787c62au, 12);
  ff(c, d, a, b, m[6] + 0xa8304613u, 17);
  ff(b, c, d, a, m[7] + 0xfd469501u, 22);
  ff(a, b, c, d, m[8] + 0x698098d8u, 7);
  ff(d, a, b, c, m[9] + 0x8b44f7afu, 12);
  ff(c, d, a, b, m[10] + 0xffff5bb1u, 17);
  ff(b, c, d, a, m[11] + 0x895cd7beu, 22);
  ff(a, b, c, d, m[12] + 0x6b901122u, 7);
  ff(d, a, b, c, m[13] + 0xfd987193u, 12);
  ff(c, d, a, b, m[14] + 0xa679438eu, 17);
  ff(b, c, d, a, m[15] + 0x49b40821u, 22);

  // Round 2.
  gg(a, b, c, d, m[1] + 0xf61e2562u, 5);
  gg(d, a, b, c, m[6] + 0xc040b340u, 9);
  gg(c, d, a, b, m[11] + 0x265e5a51u, 14);
  gg(b, c, d, a, m[0] + 0xe9b6c7aau, 20);
  gg(a, b, c, d, m[5] + 0xd62f105du, 5);
  gg(d, a, b, c, m[10] + 0x02441453u, 9);
  gg(c, d, a, b, m[15] + 0xd8a1e681u, 14);
  gg(b, c, d, a, m[4] + 0xe7d3fbc8u, 20);
  gg(a, b, c, d, m[9] + 0x21e1cde6u, 5);
  gg(d, a, b, c, m[14] + 0xc33707d6u, 9);
  gg(c, d, a, b, m[3] + 0xf4d50d87u, 14);
  gg(b, c, d, a, m[8] + 0x455a14edu, 20);
  gg(a, b, c, d, m[13] + 0xa9e3e905u, 5);
  gg(d, a, b, c, m[2] + 0xfcefa3f8u, 9);
  gg(c, d, a, b, m[7] + 0x676f02d9u, 14);
  gg(b, c, d, a, m[12] + 0x8d2a4c8au, 20);

  // Round 3.
  hh(a, b, c, d, m[5] + 0xfffa3942u, 4);
  hh(d, a, b, c, m[8] + 0x8771f681u, 11);
  hh(c, d, a, b, m[11] + 0x6d9d6122u, 16);
  hh(b, c, d, a, m[14] + 0xfde5380cu, 23);
  hh(a, b, c, d, m[1] + 0xa4beea44u, 4);
  hh(d, a, b, c, m[4] + 0x4bdecfa9u, 11);
  hh(c, d, a, b, m[7] + 0xf6bb4b60u, 16);
  hh(b, c, d, a, m[10] + 0xbebfbc70u, 23);
  hh(a, b, c, d, m[13] + 0x289b7ec6u, 4);
  hh(d, a, b, c, m[0] + 0xeaa127fau, 11);
  hh(c, d, a, b, m[3] + 0xd4ef3085u, 16);
  hh(b, c, d, a, m[6] + 0x04881d05u, 23);
  hh(a, b, c, d, m[9] + 0xd9d4d039u, 4);
  hh(d, a, b, c, m[12] + 0xe6db99e5u, 11);
  hh(c, d, a, b, m[15] + 0x1fa27cf8u, 16);
  hh(b, c, d, a, m[2] + 0xc4ac5665u, 23);

  // Round 4.
  ii(a, b, c, d, m[0] + 0xf4292244u, 6);
  ii(d, a, b, c, m[7] + 0x432aff97u, 10);
  ii(c, d, a, b, m[14] + 0xab9423a7u, 15);
  ii(b, c, d, a, m[5] + 0xfc93a039u, 21);
  ii(a, b, c, d, m[12] + 0x655b59c3u, 6);
  ii(d, a, b, c, m[3] + 0x8f0ccc92u, 10);
  ii(c, d, a, b, m[10] + 0xffeff47du, 15);
  ii(b, c, d, a, m[1] + 0x85845dd1u, 21);
  ii(a, b, c, d, m[8] + 0x6fa87e4fu, 6);
  ii(d, a, b, c, m[15] + 0xfe2ce6e0u, 10);
  ii(c, d, a, b, m[6] + 0xa3014314u, 15);
  ii(b, c, d, a, m[13] + 0x4e0811a1u, 21);
  ii(a, b, c, d, m[4] + 0xf7537e82u, 6);
  ii(d, a, b, c, m[11] + 0xbd3af235u, 10);
  ii(c, d, a, b, m[2] + 0x2ad7d2bbu, 15);
  ii(b, c, d, a, m[9] + 0xeb86d391u, 21);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (n >= 64) {
    process_block(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
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
