// MD5 message digest (RFC 1321), implemented from scratch.
//
// The paper specifies that "an MD5 message digest over the complete stream
// should be sent between end-systems" so that data integrity remains an
// end-to-end property even though flow control and buffering are hop-by-hop.
// This is that digest: an incremental hasher fed as stream bytes are
// produced/consumed, so neither endpoint ever needs the whole transfer in
// memory.
//
// MD5 is used here exactly as the paper uses it — as an integrity check
// against the silent corruption TCP's 16-bit checksum can miss — not as a
// cryptographic primitive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace lsl::md5 {

/// A finished 128-bit digest.
struct Digest {
  std::array<std::uint8_t, 16> bytes{};

  /// Lowercase hex rendering ("d41d8cd98f00b204e9800998ecf8427e").
  std::string hex() const;

  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Incremental MD5 hasher.
///
/// Usage: construct, call update() any number of times with consecutive
/// chunks of the message, then finalize(). After finalize() the hasher may be
/// reset() and reused.
class Md5 {
 public:
  Md5() { reset(); }

  /// Restore the initial state, discarding any buffered input.
  void reset();

  /// Absorb the next `data.size()` bytes of the message.
  void update(std::span<const std::uint8_t> data);

  /// Absorb `a` into `x` and `b` into `y`, exactly as `x.update(a);
  /// y.update(b)`, compressing whole blocks of the two messages in one
  /// pass. The two hashers must be distinct.
  static void update_pair(Md5& x, std::span<const std::uint8_t> a, Md5& y,
                          std::span<const std::uint8_t> b);

  /// Convenience overload for character data.
  void update(std::string_view data);

  /// Pad, absorb the length, and return the digest. The hasher must be
  /// reset() before further use.
  Digest finalize();

  /// Total number of message bytes absorbed so far.
  std::uint64_t message_length() const { return total_len_; }

 private:
  void process_block(const std::uint8_t* block);
  /// Complete a buffered partial block from the head of `data`; returns
  /// the rest, which starts on a block boundary unless it is empty.
  std::span<const std::uint8_t> top_up(std::span<const std::uint8_t> data);
  /// Compress whole blocks of `data` and buffer its tail. The buffer must
  /// be empty (after top_up) unless `data` is.
  void absorb(std::span<const std::uint8_t> data);

  std::array<std::uint32_t, 4> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot digest of a byte span.
Digest compute(std::span<const std::uint8_t> data);

/// One-shot digest of character data.
Digest compute(std::string_view data);

}  // namespace lsl::md5
