// Unit tests for src/util: units, RNG, statistics, time series, tables and
// the interval set that backs the SACK scoreboard.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "util/interval_set.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/series.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace lsl::util {
namespace {

// --- units -------------------------------------------------------------------

TEST(Units, TransmissionTimeExact) {
  const DataRate r = DataRate::mbps(8);  // 1 byte per microsecond
  EXPECT_EQ(r.transmission_time(1), kMicrosecond);
  EXPECT_EQ(r.transmission_time(1500), 1500 * kMicrosecond);
  EXPECT_EQ(DataRate::bps(0).transmission_time(1000), 0);
}

TEST(Units, TransmissionTimeNoOverflowForHugePayloads) {
  const DataRate r = DataRate::kbps(9.6);
  const std::uint64_t bytes = 8ull * kGiB;
  const SimDuration t = r.transmission_time(bytes);
  // 8 GiB at 9600 bit/s ~ 7158278 s.
  EXPECT_NEAR(to_seconds(t), 8.0 * 1024 * 1024 * 1024 * 8 / 9600.0, 1.0);
}

// The 64-bit path ends where bytes * 8 * 1e9 would overflow; on either
// side of that edge the result must equal the exact 128-bit quotient.
TEST(Units, TransmissionTimeAtTheSixtyFourBitEdge) {
  EXPECT_EQ(DataRate::kMaxBytes64, 2'305'843'009u);
  __extension__ using u128 = unsigned __int128;
  const auto exact = [](std::uint64_t bytes, std::uint64_t bps) {
    return static_cast<SimDuration>(static_cast<u128>(bytes) * 8u *
                                    1'000'000'000u / bps);
  };
  for (const std::uint64_t bps :
       {std::uint64_t{1}, std::uint64_t{9'600}, std::uint64_t{1'000'003},
        std::uint64_t{10'000'000'000}, ~std::uint64_t{0}}) {
    for (std::uint64_t bytes = DataRate::kMaxBytes64 - 2;
         bytes <= DataRate::kMaxBytes64 + 2; ++bytes) {
      EXPECT_EQ(DataRate::bps(bps).transmission_time(bytes), exact(bytes, bps))
          << bytes << " bytes at " << bps << " bit/s";
    }
  }
}

TEST(Units, ThroughputMbps) {
  EXPECT_DOUBLE_EQ(throughput_mbps(1'000'000, kSecond), 8.0);
  EXPECT_DOUBLE_EQ(throughput_mbps(123, 0), 0.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(64 * kMiB), "64M");
  EXPECT_EQ(format_bytes(32 * kKiB), "32K");
  EXPECT_EQ(format_bytes(3), "3");
  EXPECT_EQ(format_bytes(2 * kGiB), "2G");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(millis(57.3)), "57.300ms");
  EXPECT_EQ(format_duration(seconds(2.5)), "2.500s");
}

// --- rng ---------------------------------------------------------------------

TEST(Units, ParseSizeAcceptsNumbersWithBinarySuffixes) {
  EXPECT_EQ(util::parse_size("4096"), 4096u);
  EXPECT_EQ(util::parse_size("0"), 0u);
  EXPECT_EQ(util::parse_size("64k"), 64 * util::kKiB);
  EXPECT_EQ(util::parse_size("1M"), util::kMiB);
  EXPECT_EQ(util::parse_size("2g"), 2 * util::kGiB);
  EXPECT_EQ(util::parse_size("1.5K"), 1536u);
  EXPECT_EQ(util::parse_size("0.5"), 0u);  // a fraction of a byte truncates
  EXPECT_EQ(util::parse_size("17179869183G"), 17179869183 * util::kGiB);
}

TEST(Units, ParseSizeRejectsAnythingButAPlainNumber) {
  for (const char* bad :
       {"", "k", ".", ".M", "1mx", "64kx", "1 M", " 1M", "1M ", "-1", "+1",
        "1e6", "0x10", "1..5", "1.2.3", "inf", "nan", "infinity", "INF",
        "1KM"}) {
    EXPECT_EQ(util::parse_size(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(Units, ParseSizeRejectsValuesBeyond64Bits) {
  EXPECT_EQ(util::parse_size("18446744073709551616"), std::nullopt);
  EXPECT_EQ(util::parse_size("17179869184G"), std::nullopt);  // exactly 2^64
  EXPECT_EQ(util::parse_size(std::string(400, '9')), std::nullopt);
}

TEST(Units, ParseCountTakesWholeDecimalsOnly) {
  EXPECT_EQ(util::parse_count("0"), 0u);
  EXPECT_EQ(util::parse_count("12"), 12u);
  EXPECT_EQ(util::parse_count("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "2x", "x2", "-1", "+1", " 1", "1.0", "1k",
                          "18446744073709551616"}) {
    EXPECT_EQ(util::parse_count(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  Rng a2(21);
  Rng child2 = a2.split();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child(), child2());
  // Parent stream continues deterministically after the split.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a(), a2());
}

// --- ring --------------------------------------------------------------------

// The ring keeps FIFO order while it wraps, and when it grows while
// wrapped; popped elements are moved out, so move-only payloads work.
TEST(Ring, FifoAcrossWrapAndGrowth) {
  Ring<std::unique_ptr<int>> ring;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round % 7 + 3; ++i) {
      ring.push_back(std::make_unique<int>(next_in++));
    }
    for (int i = 0; i < round % 5 + 1 && !ring.empty(); ++i) {
      EXPECT_EQ(*ring.front(), next_out);
      EXPECT_EQ(*ring.pop_front(), next_out++);
    }
    if (!ring.empty()) {
      EXPECT_EQ(*ring.back(), next_in - 1);
    }
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(next_in - next_out));
  }
  while (!ring.empty()) EXPECT_EQ(*ring.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

// --- stats -------------------------------------------------------------------

TEST(Stats, RunningStatsKnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, MedianAndQuantiles) {
  const std::vector<double> v{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1.0, 2.0}), 1.5);
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

// --- series ------------------------------------------------------------------

TEST(Series, InterpolateClampsAndLerps) {
  const Series s{{0.0, 0.0}, {1.0, 10.0}, {3.0, 30.0}};
  EXPECT_DOUBLE_EQ(interpolate(s, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(interpolate(s, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interpolate(s, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(interpolate(s, 99.0), 30.0);
  EXPECT_DOUBLE_EQ(interpolate({}, 1.0), 0.0);
}

TEST(Series, ResampleCoversRange) {
  const Series s{{0.0, 0.0}, {2.0, 20.0}};
  const Series r = resample(s, 2.0, 5);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r.front().t, 0.0);
  EXPECT_DOUBLE_EQ(r.back().t, 2.0);
  EXPECT_DOUBLE_EQ(r[2].v, 10.0);
}

TEST(Series, AverageOfTwoRuns) {
  const Series a{{0.0, 0.0}, {1.0, 10.0}};
  const Series b{{0.0, 0.0}, {2.0, 10.0}};  // slower run
  const Series avg = average_series({a, b}, 3);
  ASSERT_EQ(avg.size(), 3u);
  // At t=1: a holds 10 (finished), b is at 5 -> average 7.5.
  EXPECT_DOUBLE_EQ(avg[1].t, 1.0);
  EXPECT_DOUBLE_EQ(avg[1].v, 7.5);
  EXPECT_DOUBLE_EQ(avg[2].v, 10.0);
}

TEST(Series, AverageSkipsEmptyRuns) {
  const Series a{{0.0, 2.0}, {1.0, 2.0}};
  const Series avg = average_series({a, {}}, 2);
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0].v, 2.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, AlignedOutputAndCsv) {
  Table t("demo", {"name", "value"});
  t.add_row({"alpha", 42});
  t.add_row({"beta,comma", Cell(3.14159, 2)});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("42"), std::string::npos);

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_NE(csv.str().find("\"beta,comma\",3.14"), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

// --- interval set ------------------------------------------------------------

TEST(IntervalSet, InsertMergesAdjacentAndOverlapping) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  EXPECT_EQ(s.interval_count(), 2u);
  s.insert(20, 30);  // bridges both
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total(), 30u);
  EXPECT_TRUE(s.contains(10, 40));
  EXPECT_FALSE(s.contains(9, 11));
}

TEST(IntervalSet, AdjacentInsertsMergeFromBothSides) {
  IntervalSet s;
  s.insert(20, 30);
  s.insert(30, 40);  // touches on the right: [20,40)
  EXPECT_EQ(s.interval_count(), 1u);
  s.insert(10, 20);  // touches on the left: [10,40)
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total(), 30u);
  // One past the end is NOT adjacent-mergeable territory on [start, end):
  // [41, 50) leaves the point 40 uncovered.
  s.insert(41, 50);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_FALSE(s.contains(40));
}

TEST(IntervalSet, EmptyRangesAndEmptySetQueries) {
  IntervalSet s;
  // Queries on an empty set.
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total(), 0u);
  EXPECT_EQ(s.max_end(), 0u);
  EXPECT_FALSE(s.contains(0));
  const auto g = s.next_gap(5, 10);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(*g, std::make_pair(std::uint64_t{5}, std::uint64_t{10}));
  // Empty insertions are ignored, including end < start.
  s.insert(10, 10);
  s.insert(20, 10);
  EXPECT_TRUE(s.empty());
  // erase_below on empty is a no-op.
  s.erase_below(100);
  EXPECT_TRUE(s.empty());
  // An empty query window has no gap.
  s.insert(0, 5);
  EXPECT_FALSE(s.next_gap(3, 3).has_value());
}

TEST(IntervalSet, FullWrapNearUint64Max) {
  // SACK scoreboards index absolute stream offsets; a multi-terabyte
  // session with a high initial offset pushes ranges toward the top of the
  // uint64 space. The set must stay exact there: no +1 overflow in
  // adjacency or gap scanning.
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  IntervalSet s;
  s.insert(kTop - 10, kTop);  // covers [max-10, max)
  EXPECT_TRUE(s.contains(kTop - 1));
  EXPECT_EQ(s.max_end(), kTop);
  EXPECT_EQ(s.total(), 10u);

  // Adjacent insert just below merges cleanly at the boundary.
  s.insert(kTop - 20, kTop - 10);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total(), 20u);

  // Gap scanning with limit at the very top of the space.
  s.insert(kTop - 100, kTop - 90);
  auto g = s.next_gap(kTop - 100, kTop);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->first, kTop - 90);
  EXPECT_EQ(g->second, kTop - 20);
  g = s.next_gap(kTop - 20, kTop);
  EXPECT_FALSE(g.has_value());  // fully covered up to max

  // erase_below with the maximal bound empties the set.
  s.erase_below(kTop);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total(), 0u);
}

TEST(IntervalSet, EraseBelowTrimsStraddler) {
  IntervalSet s;
  s.insert(10, 30);
  s.erase_below(20);
  EXPECT_EQ(s.total(), 10u);
  EXPECT_FALSE(s.contains(15));
  EXPECT_TRUE(s.contains(25));
}

TEST(IntervalSet, NextGapScanning) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  auto g = s.next_gap(0, 50);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->first, 0u);
  EXPECT_EQ(g->second, 10u);
  g = s.next_gap(10, 50);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->first, 20u);
  EXPECT_EQ(g->second, 30u);
  g = s.next_gap(30, 40);
  EXPECT_FALSE(g.has_value());
  g = s.next_gap(35, 45);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->first, 40u);
  EXPECT_EQ(g->second, 45u);
}

TEST(IntervalSet, CoveredWithin) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  EXPECT_EQ(s.covered_within(0, 50), 20u);
  EXPECT_EQ(s.covered_within(15, 35), 10u);
  EXPECT_EQ(s.covered_within(20, 30), 0u);
}

// ---------------------------------------------------------------------------
// Reassembly patterns (src/stripe uses one IntervalSet per stripe plus a
// global one): interleaved multi-writer coverage, duplicate and
// overlapping deliveries, and completeness checks adjacent to UINT64_MAX.

TEST(IntervalSet, InterleavedMultiWriterConvergesToOneInterval) {
  // Three writers deal 4 KiB cells round-robin (writer w owns cells with
  // index % 3 == w) and deliver them in mutually interleaved order — the
  // stripe reassembler's coverage pattern.
  constexpr std::uint64_t kCell = 4096;
  constexpr std::uint64_t kCells = 3 * 17;
  IntervalSet s;
  std::uint64_t inserted = 0;
  for (std::uint64_t k = 0; k < kCells / 3; ++k) {
    for (std::uint64_t w = 0; w < 3; ++w) {
      // Writer w delivers its cells back-to-front: maximal disorder across
      // writers, in-order never happens until the very end.
      const std::uint64_t cell = (kCells / 3 - 1 - k) * 3 + w;
      s.insert(cell * kCell, (cell + 1) * kCell);
      inserted += kCell;
      EXPECT_EQ(s.total(), inserted);
    }
  }
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.contains(0, kCells * kCell));
  EXPECT_FALSE(s.next_gap(0, kCells * kCell).has_value());
}

TEST(IntervalSet, DuplicateAndOverlappingInsertsKeepExactTotal) {
  IntervalSet s;
  s.insert(100, 200);
  s.insert(100, 200);  // exact duplicate: nothing new
  EXPECT_EQ(s.total(), 100u);
  s.insert(150, 250);  // straddles the right edge: +50
  EXPECT_EQ(s.total(), 150u);
  s.insert(50, 260);  // superset of everything so far
  EXPECT_EQ(s.total(), 210u);
  EXPECT_EQ(s.interval_count(), 1u);
  // covered_within is how the reassembler prices a redundant delivery.
  EXPECT_EQ(s.covered_within(50, 260), 210u);
  EXPECT_EQ(s.covered_within(0, 50), 0u);
}

TEST(IntervalSet, CompletenessAdjacentToUint64Max) {
  // A stream whose last byte sits at UINT64_MAX - 1: completeness must be
  // decidable without any end+1 overflow.
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  IntervalSet s;
  s.insert(0, kTop / 2);
  s.insert(kTop / 2, kTop);  // adjacent halves merge into [0, kTop)
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total(), kTop);
  EXPECT_TRUE(s.contains(0, kTop));
  EXPECT_TRUE(s.contains(kTop - 1));
  EXPECT_FALSE(s.next_gap(0, kTop).has_value());
  EXPECT_EQ(s.max_end(), kTop);

  // Poke a one-byte hole just under the top and find it again.
  IntervalSet holed;
  holed.insert(0, kTop - 1);
  const auto g = holed.next_gap(0, kTop);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->first, kTop - 1);
  EXPECT_EQ(g->second, kTop);
  holed.insert(kTop - 1, kTop);
  EXPECT_FALSE(holed.next_gap(0, kTop).has_value());
}

/// Property: random inserts/erases agree with a naive bitmap model.
class IntervalSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetProperty, AgreesWithBitmapModel) {
  constexpr std::uint64_t kUniverse = 512;
  Rng rng(GetParam());
  IntervalSet s;
  std::vector<bool> model(kUniverse, false);

  for (int step = 0; step < 300; ++step) {
    const auto a = rng.uniform_int(0, kUniverse - 1);
    const auto b = rng.uniform_int(0, kUniverse);
    const auto lo = std::min(a, b), hi = std::max(a, b);
    if (rng.bernoulli(0.8)) {
      s.insert(lo, hi);
      for (auto i = lo; i < hi; ++i) model[i] = true;
    } else {
      s.erase_below(lo);
      for (std::uint64_t i = 0; i < lo; ++i) model[i] = false;
    }

    // total
    std::uint64_t expect_total = 0;
    for (bool bit : model) expect_total += bit ? 1 : 0;
    ASSERT_EQ(s.total(), expect_total) << "step " << step;

    // point membership on a sample
    for (int probe = 0; probe < 16; ++probe) {
      const auto x = rng.uniform_int(0, kUniverse - 1);
      ASSERT_EQ(s.contains(x), static_cast<bool>(model[x]))
          << "x=" << x << " step=" << step;
    }

    // next_gap from a random origin
    const auto from = rng.uniform_int(0, kUniverse - 1);
    const auto gap = s.next_gap(from, kUniverse);
    std::uint64_t naive = from;
    while (naive < kUniverse && model[naive]) ++naive;
    if (naive == kUniverse) {
      ASSERT_FALSE(gap.has_value());
    } else {
      ASSERT_TRUE(gap.has_value());
      ASSERT_EQ(gap->first, naive);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace lsl::util
