// Deterministic payload streams.
//
// When transfers carry real bytes (tests, the MD5 integrity path, the posix
// client) the payload is generated from a PRNG seeded by the session id, so
// the source and sink can independently produce byte-identical streams —
// the sink verifies content without any side channel, exactly as a file
// transfer would, but without storing multi-megabyte fixtures.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "md5/md5.hpp"
#include "util/rng.hpp"

namespace lsl::core {

/// Deterministic byte-stream generator. The stream content is a pure
/// function of (seed, byte offset), so chunking never affects the bytes.
class PayloadGenerator {
 public:
  explicit PayloadGenerator(std::uint64_t seed) : mix_(util::Rng(seed)()) {}

  /// Fill `out` with the next out.size() bytes of the stream.
  void generate(std::span<std::uint8_t> out);

  /// Total bytes generated so far.
  std::uint64_t position() const { return position_; }

  /// Jump to an absolute stream position (content is random-access); used
  /// when a resumed session retransmits from its acknowledged offset.
  void seek(std::uint64_t position) { position_ = position; }

 private:
  std::uint64_t mix_;
  std::uint64_t position_ = 0;
};

/// Sequential content check against the same stream: compares received
/// bytes with the generator's output through a fixed-size stack block, so a
/// chunk of any size costs no allocation.
class PayloadCheck {
 public:
  explicit PayloadCheck(std::uint64_t seed) : expect_(seed) {}

  /// Compare the next received chunk. Returns false (and latches failure)
  /// on the first mismatching byte.
  bool feed(std::span<const std::uint8_t> data);

  bool ok() const { return ok_; }

 private:
  PayloadGenerator expect_;
  bool ok_ = true;
};

/// Sequential verifier for the same stream: feeds received bytes through a
/// PayloadCheck and accumulates the MD5 the sender will ship in the digest
/// trailer.
class PayloadVerifier {
 public:
  /// With `check_content` false, feed() only accumulates the MD5 (for the
  /// digest trailer) without comparing bytes against the generator — the
  /// mode used for arbitrary (non-generated) payloads such as files.
  explicit PayloadVerifier(std::uint64_t seed, bool check_content = true)
      : check_(check_content ? std::optional<PayloadCheck>(seed)
                             : std::nullopt) {}

  /// Check the next received chunk. Returns false (and latches failure) on
  /// the first mismatching byte.
  bool feed(std::span<const std::uint8_t> data);

  /// Exactly `x.feed(a); y.feed(b)`, with the two MD5s compressed in one
  /// pass (md5::Md5::update_pair). The verifiers must be distinct.
  static void feed_pair(PayloadVerifier& x, std::span<const std::uint8_t> a,
                        PayloadVerifier& y, std::span<const std::uint8_t> b);

  bool ok() const { return !check_ || check_->ok(); }
  std::uint64_t verified_bytes() const { return verified_; }

  /// MD5 over everything fed so far (mirrors the sender's stream digest).
  md5::Digest digest() const { return hash_copy_digest(); }

 private:
  md5::Digest hash_copy_digest() const;
  /// The content check and byte count for data already hashed.
  void count(std::span<const std::uint8_t> data);

  std::optional<PayloadCheck> check_;  ///< empty: digest only
  md5::Md5 hasher_;
  std::uint64_t verified_ = 0;
};

/// MD5 of the first `length` bytes of the stream seeded with `seed` —
/// what the sender computes while transmitting.
md5::Digest stream_digest(std::uint64_t seed, std::uint64_t length);

}  // namespace lsl::core
