// MD5 correctness: the RFC 1321 test suite, incremental/one-shot
// equivalence under arbitrary chunkings, reuse semantics, and known answers
// pinned from an independent implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "md5/md5.hpp"
#include "util/rng.hpp"

namespace lsl::md5 {
namespace {

TEST(Md5, Rfc1321TestSuite) {
  EXPECT_EQ(compute("").hex(), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(compute("a").hex(), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(compute("abc").hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(compute("message digest").hex(),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(compute("abcdefghijklmnopqrstuvwxyz").hex(),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      compute("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
          .hex(),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(compute("1234567890123456789012345678901234567890123456789012345"
                    "6789012345678901234567890")
                .hex(),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, BlockBoundaryLengths) {
  // Lengths straddling the 64-byte block and the 56-byte padding cutoff.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Md5 h;
    h.update(msg);
    const Digest d = h.finalize();
    EXPECT_EQ(d, compute(msg)) << "len=" << len;
  }
}

class Md5Chunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Md5Chunking, IncrementalMatchesOneShot) {
  util::Rng rng(99);
  std::vector<std::uint8_t> data(100'000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  const Digest whole = compute(data);

  Md5 h;
  const std::size_t chunk = GetParam();
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t n = std::min(chunk, data.size() - off);
    h.update(std::span<const std::uint8_t>(data.data() + off, n));
  }
  EXPECT_EQ(h.finalize(), whole);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Md5Chunking,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 1000, 4096,
                                           99991));

TEST(Md5, ResetAllowsReuse) {
  Md5 h;
  h.update("first message");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finalize().hex(), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, MessageLengthTracksInput) {
  Md5 h;
  h.update("12345");
  h.update("678");
  EXPECT_EQ(h.message_length(), 8u);
}

TEST(Md5, DigestEqualityAndHex) {
  const Digest a = compute("abc");
  const Digest b = compute("abc");
  const Digest c = compute("abd");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hex().size(), 32u);
}

TEST(Md5, EmptyUpdateAfterPartialBlock) {
  // An empty span or string_view may carry a null data pointer; with a
  // partial block buffered it must be a no-op, not a memcpy from null.
  Md5 h;
  h.update("abc");
  h.update(std::span<const std::uint8_t>{});
  h.update(std::string_view{});
  EXPECT_EQ(h.message_length(), 3u);
  EXPECT_EQ(h.finalize().hex(), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, Rfc1321MillionA) {
  const std::string msg(1'000'000, 'a');
  EXPECT_EQ(compute(msg).hex(), "7707d6ae4e027c70eea2a935c2296f21");
}

// Byte i of the pattern is (7 * i + 3) mod 256.
std::vector<std::uint8_t> pattern(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>(7 * i + 3);
  }
  return out;
}

// kPatternDigests[n] is the MD5 of the first n pattern bytes, pinned from
// coreutils md5sum rather than from this implementation:
//   for n in $(seq 0 130); do
//     python3 -c "import sys; sys.stdout.buffer.write(
//         bytes((i * 7 + 3) % 256 for i in range($n)))" | md5sum
//   done
constexpr const char* kPatternDigests[] = {
      "d41d8cd98f00b204e9800998ecf8427e",
      "8666683506aacd900bbd5a74ac4edf68",
      "c950ee5a697ceb1f1feafbca1147e254",
      "c9aee4810523ef8658121b8d492c6b41",
      "12508583d13baad57b58e0726ea91e98",
      "e318134e0ab2b7ab76c3876039f1c956",
      "e9d72b73add17cc32f4cb3c8c979a7ae",
      "cba0d4629465fa7ec898b1c04cb03904",
      "dab7d36c74183625ebceb4b3107d7e43",
      "94b32a20105751663116174b88c2feeb",
      "de1951cfd0dbdefcba237c7fd286b9e0",
      "4e20fb9e1ef5f854da04bd344092b6b5",
      "f872e64a6563c1fbdd486519ceda7581",
      "6580730e887f62b12a485f4ff03350ed",
      "0d302a05ceff16256dd7a5bd9300abf1",
      "a102af85951589c6397769d540865d4a",
      "93498065c90c7511629efc2a676cf256",
      "4e208ba7eda62e0fa7ce53387b02236d",
      "b063b0549163d220de1edd8a23b7b054",
      "ccb02c714bea290cded09732177d60b1",
      "b8db27b9098b351f2c0e7cab19289ed9",
      "9d51fbb3d75b7cf2c04e89615deb3921",
      "fe2bfa4a5af2ff39513368bed61769ca",
      "340a4188399e519adea4e7edd04c5496",
      "e53d52b691185dac65b8b327aab3e6d1",
      "4d13bdcb07302dddddc7ebebe5d79212",
      "a95d97bd92e42b61b54636e1a99f4cf5",
      "4b0da2e00a8a878848e1e8b7cecb8928",
      "7cb900b7d359fbc78c012f4b6fae2dc7",
      "1dc74ac243c8e8f15ab4f808c3f3df42",
      "455a0b77b347d98d102aef299878eeb4",
      "92d60eb7b58a4d66ad90b7935bfb33d5",
      "37e883d2c833cc697211727308d724e7",
      "559f842ab304a042cfcd6fad8713c61a",
      "bb7e61e5edbf72ff13c9fa4cf39999ab",
      "2ec00911fe3c0df28aa439f0985648dc",
      "e98df37143bb29417de8cb9dc5a3af3b",
      "7e5fc19c3dd2eefa0c469d1266ad28b2",
      "4caf8c4a661fa2443851f9717e27bfb3",
      "8fc9ad3f85168a8a79f83b9bd58b4700",
      "37d232517ba04c6989f1d5cee71209a0",
      "226587391a23f0454409dfa5610a0612",
      "7e64c287a80f89d9a81f324b6c134551",
      "73defb1b45f61588f2b0f0118f1689df",
      "c85aa221217beedb0191eb8764398c0c",
      "a7970086cb1f04f00782175f87507d9d",
      "49a71debb41eeb0cc8e14deea9827011",
      "dc081b0003ee8addefa76b0c4f465c67",
      "5117f4269ca5456f8dd0e47ddd3e0832",
      "84082d3a501ab9084b27c42000a2ab2d",
      "e4533360af50a086d3dec70231442d2d",
      "d480ff0eb166e7f0ae0199e979c950aa",
      "9381ce04c4b7d19016af251a8034a15d",
      "c2322828c65bcd66ec9fa1e2f6e56b5b",
      "eb5acae65a800805a13648f23dea0327",
      "52c0e574e1198de5fe3f8f11440dcb1b",
      "46c9907fc908ee68b1e7b8e71286a518",
      "1c805dd236c35cab25fcb1bc73802c51",
      "bca54f0684135200890418305d71acac",
      "01344f4f53fcb77c6f85b7c808411ee8",
      "88cedcdc923e0dc7346f92cc4cee4179",
      "0fae1a833824da26a06af17d24b5e783",
      "8eece4c814dc5eb0d6722df349794fe0",
      "a62f6d59e837867693f042f5b8f5a236",
      "7160b8fb5e9e4023d549c3971fbaeead",
      "70bd662e7aefbda85a0f7244167b7897",
      "a7e438b4b549aeac81d58ce084a8cc82",
      "91bbae8b4023df9d1865084b12770b41",
      "c28d503f96863ccadd87b48683251719",
      "8db68bc8c28f7e611403d41803363731",
      "5c9fb9f228663ac48fc9d6d7dab17e42",
      "26e7e113db273c68b0fc3ce4660fc5e2",
      "f9019e69c0b288ca2b635cfa0de38932",
      "5e422c5ded3c8a8396dfbad7d51601c0",
      "31ba317e4f6e5232ba904d6bba662218",
      "394aece866fa562b3a41a8e2ddf95f06",
      "5a467d47a0008e0fe77b3f7bb253a5b6",
      "b1e0930eb117db227c0a6c26b8b8d7e0",
      "9c1563ad259fe66a027e326a2230ab45",
      "87db68ef4d37224dd5046e45c90c5225",
      "f5b2e38db29de5b31a296c40c74ec344",
      "28e7be2dcbe1dcff632ca0efbed25d77",
      "8f5e295eb32a428971373489fd344024",
      "2754ef51ebf880201a029a6e9db1c6d8",
      "8421086f83cccc468349d475d38cda0e",
      "4d1280f4e99de07e63be0e3bcf144bf9",
      "ef4084f1ca79ad69bd70fe495db9ac67",
      "aa8d862a6f1357c1042ae12aba2dfc39",
      "5b24ebccd1c2488249709661fe45bb3a",
      "550fc67477f8007d1d5b8e7638fdb9b5",
      "a1f38bc207e8b3e316ef8072d3a9248a",
      "2527ae8df6f82117cc25441523944bac",
      "990c88dfd119106f0bd06aa464b41aff",
      "8e7b3ba41fcb83e3c85a6d9910f52832",
      "e9a01abe4ccedb7089319eec7e9f016d",
      "a5fdaa14db8fc0b635dbab5c72e3c178",
      "d43267cd1eba7a9af38f0a4689c32f69",
      "a909d98112ba19ce7e61a6bfee384151",
      "48486757a618701bbe40c31991341658",
      "03d21478673a8cbc41cc175cf82f4942",
      "f85d474760cb48f459327ba2209c185d",
      "1a30d5aeaa6b1dfdd86c7a9326a3a5d1",
      "0617fe93a0083d59a32aa3dc527d11f1",
      "a196bddcad45f15e5b5ecc17715a38fd",
      "a55daca3482d9d27a7ad621b73060dd4",
      "6e6c42ffecf0185840ec8e0db22381cf",
      "76d55aad95f3e42ff4bd457c9dc9ac8f",
      "38aba8bd6468a7577ef401c722d59170",
      "3e3714728d6560752fa4266bf28857f2",
      "5ddb36773fe9a86bc0f590e88583b807",
      "0ccd30cfa455fae2b4a073b0a7fb9afe",
      "13f00cb15f0c3fe588d1c17cde14b38f",
      "5fe6a9f76b541ec645559589da9a088a",
      "d4be13fd3019b6e959e11ff06e5671ae",
      "0faf24d27038b7f40b10efdb45bba699",
      "7b2107ccf358fd50d04be7572cb2a031",
      "9da080404bb3ef7b13abc1595ca0556d",
      "2268de7b9d7e1f34ecfdf5dc3629159b",
      "f7ee9ac5422f3dde35ddca3d87bf365b",
      "e84905d4214f4d1ca56c2cdcc152b143",
      "e3eb5a6c8669ea01a8c185b8abc8a5dc",
      "82f02aff7c685d5ef5f6abdfc38fd04f",
      "3264d4667a3f9b010916fdae50703f40",
      "0134c9c6cc77c9406fee9f9ab05e226f",
      "30b6c4313c98897e504387b98777ac6d",
      "55580346bc5457bde04f67ce8a5b0df5",
      "5e1ada0df43aedbcf8b20751d806693e",
      "acce2474d6cc8302120d09c818d17ef7",
      "10b2da1a82f16d99a81a7203fe9f02cb",
      "03fefbbcebe2959cf2270241aafe0250",
      "4298951876af905376a025f7279651c2",
};

TEST(Md5, PinnedDigestsForLengthsUpTo130) {
  const std::vector<std::uint8_t> data = pattern(std::size(kPatternDigests));
  for (std::size_t len = 0; len < std::size(kPatternDigests); ++len) {
    const std::span<const std::uint8_t> msg(data.data(), len);
    EXPECT_EQ(compute(msg).hex(), kPatternDigests[len]) << "len=" << len;
  }
}

TEST(Md5, UnalignedInputMatchesAlignedDigest) {
  const std::vector<std::uint8_t> data = pattern(130);
  const std::string want = kPatternDigests[130];
  ASSERT_EQ(compute(data).hex(), want);
  std::vector<std::uint8_t> buf(data.size() + 8);
  for (std::size_t off = 1; off <= 7; ++off) {
    std::copy(data.begin(), data.end(), buf.begin() + off);
    const std::span<const std::uint8_t> msg(buf.data() + off, data.size());
    EXPECT_EQ(compute(msg).hex(), want) << "offset=" << off;
    // Split so whole blocks are hashed straight from the unaligned pointer
    // after a partial block was buffered.
    Md5 h;
    h.update(msg.first(5));
    h.update(msg.subspan(5));
    EXPECT_EQ(h.finalize().hex(), want) << "offset=" << off << " split";
  }
}

// Pattern digests past the short table, pinned with the same command:
// the pair grid's long messages with 0, 1 or 63 bytes already held.
struct PinnedLong {
  std::size_t len;
  const char* hex;
};
constexpr PinnedLong kLongPatternDigests[] = {
    {4095, "53de317667ca40d9642e2d859bfbfd16"},
    {4096, "d105289f5617c241f52a191c6b2fc809"},
    {4097, "c7cfb8a6d3d4929f9035e0918250b62d"},
    {4158, "9901290b9ee52809ab8d4a972050021d"},
    {4159, "4df25f3d684c9a132f4ca3416601cf09"},
    {4160, "8ebbcdfec1dec142cedb2a9554cc2489"},
    {65536, "55f3da07043d8f6f30808f9309120b1d"},
    {65537, "8bbe2ba9b420c53493027ed87dbc57c8"},
    {65599, "2a50a4d41f6af867178685e0f05a470e"},
};

// The coreutils digest of the first `len` pattern bytes, when pinned.
const char* pinned_pattern_digest(std::size_t len) {
  if (len < std::size(kPatternDigests)) return kPatternDigests[len];
  for (const PinnedLong& p : kLongPatternDigests) {
    if (p.len == len) return p.hex;
  }
  return nullptr;
}

// Hashes the first `held + len` pattern bytes twice — `held` bytes first,
// then the rest through update_pair() with the other side — and checks the
// paired hasher against the sequential one and, when pinned, coreutils.
struct PairSide {
  std::size_t held;
  std::size_t len;
};

void expect_pair_matches(const std::vector<std::uint8_t>& data, PairSide x,
                         PairSide y) {
  const auto rest = [&](PairSide side) {
    return std::span<const std::uint8_t>(data.data() + side.held, side.len);
  };
  Md5 px, py, sx, sy;
  for (Md5* h : {&px, &sx}) h->update(std::span(data.data(), x.held));
  for (Md5* h : {&py, &sy}) h->update(std::span(data.data(), y.held));
  Md5::update_pair(px, rest(x), py, rest(y));
  sx.update(rest(x));
  sy.update(rest(y));
  const auto label = ::testing::Message()
                     << "x held " << x.held << " len " << x.len << ", y held "
                     << y.held << " len " << y.len;
  EXPECT_EQ(px.message_length(), x.held + x.len) << label;
  EXPECT_EQ(py.message_length(), y.held + y.len) << label;
  const Digest dx = px.finalize(), dy = py.finalize();
  EXPECT_EQ(dx, sx.finalize()) << label;
  EXPECT_EQ(dy, sy.finalize()) << label;
  if (const char* want = pinned_pattern_digest(x.held + x.len)) {
    EXPECT_EQ(dx.hex(), want) << label << " (x)";
  }
  if (const char* want = pinned_pattern_digest(y.held + y.len)) {
    EXPECT_EQ(dy.hex(), want) << label << " (y)";
  }
}

std::vector<std::size_t> pair_grid_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 130; ++n) lens.push_back(n);
  for (std::size_t n : {4095u, 4096u, 4097u, 65536u}) lens.push_back(n);
  return lens;
}

constexpr std::size_t kHeldBytes[] = {0, 1, 63};

TEST(Md5, PairMatchesTwoSequentialUpdates) {
  // Both sides hash the same pattern; when they hold different prefixes
  // their paired blocks differ, so a pass that crossed the lanes' message
  // words would miss the pinned digests.
  const std::vector<std::uint8_t> data = pattern(65536 + 63);
  for (std::size_t len : pair_grid_lengths()) {
    for (std::size_t hx : kHeldBytes) {
      for (std::size_t hy : kHeldBytes) {
        expect_pair_matches(data, {hx, len}, {hy, len});
      }
    }
  }
}

TEST(Md5, PairOfUnequalLengths) {
  const std::vector<std::uint8_t> data = pattern(65536 + 63);
  const std::size_t lens[] = {0, 1, 55, 63, 64, 65, 127, 128, 130, 4097, 65536};
  for (std::size_t lx : lens) {
    for (std::size_t ly : lens) {
      for (std::size_t held : kHeldBytes) {
        expect_pair_matches(data, {held, lx}, {0, ly});
      }
    }
  }
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Md5, PairWithEmptySpans) {
  // Empty spans may carry a null pointer; with partial blocks buffered
  // they must not reach memcpy (the ubsan build aborts if they do).
  const std::span<const std::uint8_t> none{};
  Md5 x, y;
  x.update("ab");
  y.update("a");
  Md5::update_pair(x, none, y, none);
  Md5::update_pair(x, bytes_of("c"), y, none);
  Md5::update_pair(x, none, y, bytes_of("bc"));
  Md5::update_pair(x, none, y, none);
  EXPECT_EQ(x.message_length(), 3u);
  EXPECT_EQ(y.message_length(), 3u);
  EXPECT_EQ(x.finalize().hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(y.finalize().hex(), "900150983cd24fb0d6963f7d28e17f72");
}

}  // namespace
}  // namespace lsl::md5
