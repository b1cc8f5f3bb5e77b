// Unit and property tests of the TCP stream buffers: the sender ring and
// the receiver reassembly queue (overlap trimming, window accounting, SACK
// block extraction), in both real- and virtual-payload modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "tcp/buffers.hpp"
#include "util/rng.hpp"

namespace lsl::tcp {
namespace {

std::shared_ptr<const std::vector<std::uint8_t>> bytes_from(
    std::initializer_list<std::uint8_t> init) {
  return std::make_shared<std::vector<std::uint8_t>>(init);
}

// --- SendBuffer --------------------------------------------------------------

TEST(SendBuffer, RealModeRoundTrip) {
  SendBuffer sb(16, /*real=*/true);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  EXPECT_EQ(sb.write(data), 5u);
  EXPECT_EQ(sb.written(), 5u);
  EXPECT_EQ(sb.free_space(), 11u);

  auto slice = sb.slice(1, 3);
  ASSERT_TRUE(slice);
  EXPECT_EQ(*slice, (std::vector<std::uint8_t>{2, 3, 4}));
}

TEST(SendBuffer, WrapAroundSlice) {
  SendBuffer sb(8, true);
  std::vector<std::uint8_t> a{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(sb.write(a), 6u);
  sb.ack_to(5);  // free the first five bytes
  std::vector<std::uint8_t> b{6, 7, 8, 9, 10};
  EXPECT_EQ(sb.write(b), 5u);  // wraps around the ring
  auto slice = sb.slice(5, 6);
  ASSERT_TRUE(slice);
  EXPECT_EQ(*slice, (std::vector<std::uint8_t>{5, 6, 7, 8, 9, 10}));
}

TEST(SendBuffer, CapacityBoundsWrites) {
  SendBuffer sb(4, true);
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(sb.write(data), 4u);
  EXPECT_EQ(sb.free_space(), 0u);
  sb.ack_to(2);
  EXPECT_EQ(sb.free_space(), 2u);
}

TEST(SendBuffer, VirtualModeCountsOnly) {
  SendBuffer sb(1000, false);
  EXPECT_EQ(sb.write_virtual(600), 600u);
  EXPECT_EQ(sb.write_virtual(600), 400u);
  EXPECT_EQ(sb.slice(0, 10), nullptr);
  sb.ack_to(500);
  EXPECT_EQ(sb.free_space(), 500u);
}

TEST(SendBuffer, AckToIsMonotoneAndClamped) {
  SendBuffer sb(100, false);
  sb.write_virtual(50);
  sb.ack_to(30);
  sb.ack_to(10);  // regression must be ignored
  EXPECT_EQ(sb.acked(), 30u);
  sb.ack_to(999);  // beyond written clamps
  EXPECT_EQ(sb.acked(), 50u);
}

// --- RecvBuffer --------------------------------------------------------------

TEST(RecvBuffer, InOrderDelivery) {
  RecvBuffer rb(100, true);
  EXPECT_TRUE(rb.insert(0, 3, bytes_from({1, 2, 3})));
  EXPECT_EQ(rb.rcv_nxt(), 3u);
  EXPECT_EQ(rb.readable(), 3u);

  std::uint8_t out[8];
  EXPECT_EQ(rb.read(std::span<std::uint8_t>(out, 8)), 3u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(rb.readable(), 0u);
}

TEST(RecvBuffer, OutOfOrderHoldsUntilGapFills) {
  RecvBuffer rb(100, true);
  EXPECT_FALSE(rb.insert(3, 3, bytes_from({4, 5, 6})));
  EXPECT_EQ(rb.rcv_nxt(), 0u);
  EXPECT_EQ(rb.out_of_order_bytes(), 3u);
  EXPECT_TRUE(rb.insert(0, 3, bytes_from({1, 2, 3})));
  EXPECT_EQ(rb.rcv_nxt(), 6u);
  EXPECT_EQ(rb.out_of_order_bytes(), 0u);

  std::uint8_t out[6];
  EXPECT_EQ(rb.read(out), 6u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[5], 6);
}

TEST(RecvBuffer, DuplicateAndOverlapTrimmed) {
  RecvBuffer rb(100, true);
  rb.insert(0, 4, bytes_from({1, 2, 3, 4}));
  // Retransmission overlapping old + new data.
  rb.insert(2, 4, bytes_from({30, 40, 5, 6}));
  EXPECT_EQ(rb.rcv_nxt(), 6u);
  std::uint8_t out[6];
  EXPECT_EQ(rb.read(out), 6u);
  // Original bytes win where they already existed.
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(out[4], 5);
  EXPECT_EQ(out[5], 6);
}

TEST(RecvBuffer, WindowShrinksWithUnreadAndOoo) {
  RecvBuffer rb(100, false);
  rb.insert(0, 30, nullptr);
  EXPECT_EQ(rb.window(), 70u);
  rb.insert(50, 20, nullptr);  // out of order
  EXPECT_EQ(rb.window(), 50u);
  rb.read_virtual(30);
  EXPECT_EQ(rb.window(), 80u);
}

TEST(RecvBuffer, CapacityClipsInsert) {
  RecvBuffer rb(10, false);
  rb.insert(0, 50, nullptr);
  EXPECT_EQ(rb.rcv_nxt(), 10u);
  EXPECT_EQ(rb.window(), 0u);
}

TEST(RecvBuffer, OooBlockContainingMergesAdjacency) {
  RecvBuffer rb(1000, false);
  rb.insert(100, 50, nullptr);
  rb.insert(150, 50, nullptr);  // adjacent
  rb.insert(300, 10, nullptr);  // separate block
  const auto blk = rb.ooo_block_containing(120);
  ASSERT_TRUE(blk.has_value());
  EXPECT_EQ(blk->first, 100u);
  EXPECT_EQ(blk->second, 200u);
  const auto blk2 = rb.ooo_block_containing(305);
  ASSERT_TRUE(blk2.has_value());
  EXPECT_EQ(blk2->first, 300u);
  EXPECT_EQ(blk2->second, 310u);
  EXPECT_FALSE(rb.ooo_block_containing(250).has_value());
  EXPECT_FALSE(rb.ooo_block_containing(0).has_value());
}

/// Property: any random segmentation, arrival order, duplication pattern
/// reassembles to exactly the original stream.
class RecvBufferProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecvBufferProperty, ReassemblesAnyArrivalOrder) {
  util::Rng rng(GetParam());
  constexpr std::size_t kLen = 10000;
  std::vector<std::uint8_t> original(kLen);
  for (auto& b : original) b = static_cast<std::uint8_t>(rng());

  // Cut into random segments.
  struct Seg {
    std::size_t off, len;
  };
  std::vector<Seg> segs;
  std::size_t pos = 0;
  while (pos < kLen) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.uniform_int(0, 700), kLen - pos);
    segs.push_back({pos, len});
    pos += len;
  }
  // Shuffle and duplicate ~20%.
  std::vector<Seg> arrivals = segs;
  for (const auto& s : segs) {
    if (rng.bernoulli(0.2)) arrivals.push_back(s);
  }
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[rng.uniform_int(0, i - 1)]);
  }

  RecvBuffer rb(kLen + 1, true);
  for (const auto& s : arrivals) {
    auto payload = std::make_shared<std::vector<std::uint8_t>>(
        original.begin() + static_cast<long>(s.off),
        original.begin() + static_cast<long>(s.off + s.len));
    rb.insert(s.off, static_cast<std::uint32_t>(s.len), payload);
  }
  ASSERT_EQ(rb.rcv_nxt(), kLen);

  std::vector<std::uint8_t> out(kLen);
  EXPECT_EQ(rb.read(out), kLen);
  EXPECT_EQ(out, original);
  EXPECT_EQ(rb.out_of_order_bytes(), 0u);
}

/// Property: a virtual-mode buffer fed the same arrivals as a real-mode
/// one, with the same reads in between, agrees with it after every insert
/// (frontier, readable bytes, window, out-of-order bytes, SACK blocks), and
/// the real one reads back exactly the original stream. Arrivals overlap at
/// arbitrary offsets and the capacity is small, so the window closes and
/// the capacity clip trims segments.
TEST_P(RecvBufferProperty, VirtualTwinAgreesWithRealModeBetweenReads) {
  util::Rng rng(GetParam());
  constexpr std::uint64_t kLen = 20000;
  constexpr std::uint64_t kCapacity = 3000;
  std::vector<std::uint8_t> original(kLen);
  for (auto& b : original) b = static_cast<std::uint8_t>(rng());

  RecvBuffer real(kCapacity, true);
  RecvBuffer virt(kCapacity, false);
  std::uint64_t read_pos = 0;
  int inserts = 0;
  while (read_pos < kLen) {
    ASSERT_LT(inserts, 100000) << "no progress";
    if (real.rcv_nxt() == kLen) {
      std::vector<std::uint8_t> rest(kLen - read_pos);
      ASSERT_EQ(real.read(rest), rest.size());
      ASSERT_EQ(virt.read_virtual(rest.size()), rest.size());
      ASSERT_TRUE(std::equal(rest.begin(), rest.end(),
                             original.begin() + static_cast<long>(read_pos)));
      read_pos = kLen;
      break;
    }
    // A third of the arrivals land at the frontier; the rest anywhere from
    // a little below it to past the end of the window.
    const std::uint64_t lo = real.rcv_nxt() > 500 ? real.rcv_nxt() - 500 : 0;
    const std::uint64_t off =
        rng.bernoulli(0.33)
            ? real.rcv_nxt()
            : rng.uniform_int(lo, std::min(kLen - 1, read_pos + kCapacity));
    const std::uint64_t len =
        std::min<std::uint64_t>(1 + rng.uniform_int(0, 900), kLen - off);
    auto payload = std::make_shared<std::vector<std::uint8_t>>(
        original.begin() + static_cast<long>(off),
        original.begin() + static_cast<long>(off + len));
    const auto n = static_cast<std::uint32_t>(len);
    const bool ra = real.insert(off, n, payload);
    const bool va = virt.insert(off, n, nullptr);
    ++inserts;
    ASSERT_EQ(ra, va) << "insert " << inserts;
    ASSERT_EQ(real.rcv_nxt(), virt.rcv_nxt()) << "insert " << inserts;
    ASSERT_EQ(real.readable(), virt.readable());
    ASSERT_EQ(real.window(), virt.window());
    ASSERT_EQ(real.out_of_order_bytes(), virt.out_of_order_bytes());
    for (const std::uint64_t probe :
         {off, off + len / 2, off + len - 1, real.rcv_nxt(),
          real.rcv_nxt() + 1 + rng.uniform_int(0, kCapacity)}) {
      ASSERT_EQ(real.ooo_block_containing(probe),
                virt.ooo_block_containing(probe))
          << "probe " << probe << " after insert " << inserts;
    }

    if (rng.bernoulli(0.4) && real.readable() > 0) {
      const std::size_t want =
          static_cast<std::size_t>(1 + rng.uniform_int(0, 1600));
      std::vector<std::uint8_t> out(want);
      const std::size_t got = real.read(out);
      ASSERT_EQ(virt.read_virtual(want), got);
      ASSERT_TRUE(std::equal(out.begin(),
                             out.begin() + static_cast<long>(got),
                             original.begin() + static_cast<long>(read_pos)))
          << "bytes at " << read_pos;
      read_pos += got;
      ASSERT_EQ(real.readable(), virt.readable());
      ASSERT_EQ(real.window(), virt.window());
    }
  }
  EXPECT_EQ(real.readable(), 0u);
  EXPECT_EQ(virt.readable(), 0u);
  EXPECT_EQ(virt.out_of_order_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecvBufferProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

}  // namespace
}  // namespace lsl::tcp
