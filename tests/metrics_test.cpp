// Tests of the metrics subsystem: instrument semantics, registry interning,
// exporters, and the end-to-end agreement the subsystem exists for — live
// per-sublink instruments on a 2-depot cascade must tell the same story as
// trace::analysis run over the same traces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "metrics/export.hpp"
#include "metrics/instruments.hpp"
#include "metrics/metrics.hpp"
#include "trace/analysis.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

TEST(Instruments, CounterAccumulates) {
  metrics::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Instruments, GaugeTracksExtremes) {
  metrics::Gauge g;
  EXPECT_FALSE(g.touched());
  g.set(5.0);
  g.set(-3.0);
  g.set(2.0);
  EXPECT_TRUE(g.touched());
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  EXPECT_DOUBLE_EQ(g.min(), -3.0);
}

TEST(Instruments, HistogramBucketsAndOverflow) {
  metrics::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.mean(), 555.5 / 4);
}

TEST(Instruments, ExponentialBoundsDouble) {
  const auto b = metrics::Histogram::exponential(0.5, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 0.5);
  EXPECT_DOUBLE_EQ(b[3], 4.0);
}

TEST(Instruments, TimeseriesThinsToCapacity) {
  metrics::Timeseries ts(8);
  for (int i = 0; i < 1000; ++i) {
    ts.record(static_cast<double>(i), static_cast<double>(i * i));
  }
  EXPECT_EQ(ts.recorded(), 1000u);
  EXPECT_LE(ts.samples().size(), 8u);
  EXPECT_GE(ts.samples().size(), 2u);
  for (std::size_t i = 1; i < ts.samples().size(); ++i) {
    EXPECT_LT(ts.samples()[i - 1].t, ts.samples()[i].t);
  }
}

TEST(Registry, InternsByNameAndKind) {
  metrics::Registry reg;
  metrics::Counter& a = reg.counter("x");
  metrics::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  reg.gauge("x");  // same name, different kind: a distinct instrument
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.find_counter("x"), &a);
  EXPECT_EQ(reg.find_counter("y"), nullptr);
  EXPECT_EQ(reg.find_histogram("x"), nullptr);
}

TEST(Registry, HistogramBoundsFixedAtFirstRegistration) {
  metrics::Registry reg;
  metrics::Histogram& h = reg.histogram("h", {1.0, 2.0});
  metrics::Histogram& again = reg.histogram("h", {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(h.bounds().size(), 2u);
}

TEST(Export, JsonlCarriesEveryKind) {
  metrics::Registry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {10.0}).observe(4.0);
  reg.timeseries("t").record(0.5, 2.0);
  std::ostringstream out;
  metrics::write_jsonl(reg, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("{\"type\":\"counter\",\"name\":\"c\",\"value\":3}"),
            std::string::npos);
  EXPECT_NE(s.find("\"type\":\"gauge\",\"name\":\"g\""), std::string::npos);
  EXPECT_NE(s.find("\"le\":\"inf\""), std::string::npos);
  EXPECT_NE(s.find("\"points\":[[0.5,2]"), std::string::npos);
}

TEST(Export, CsvFlattensRows) {
  metrics::Registry reg;
  reg.counter("c").inc(7);
  reg.histogram("h", {10.0}).observe(4.0);
  std::ostringstream out;
  metrics::write_csv(reg, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("counter,c,value,7"), std::string::npos);
  EXPECT_NE(s.find("le=10"), std::string::npos);
}

TEST(Export, FileDispatchByExtension) {
  metrics::Registry reg;
  reg.counter("c").inc(1);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(metrics::write_file(reg, dir + "metrics_test_out.csv"));
  ASSERT_TRUE(metrics::write_file(reg, dir + "metrics_test_out.jsonl"));
  std::ifstream csv(dir + "metrics_test_out.csv");
  std::string first;
  std::getline(csv, first);
  EXPECT_EQ(first, "kind,name,field,value");
  std::ifstream jsonl(dir + "metrics_test_out.jsonl");
  std::getline(jsonl, first);
  EXPECT_EQ(first.front(), '{');
}

TEST(TraceBridge, EmptyTraceExportsZeroes) {
  trace::TraceRecorder rec("empty");
  metrics::Registry reg;
  trace::export_trace_metrics(rec, reg, "trace.empty");
  EXPECT_EQ(reg.find_counter("trace.empty.retransmits")->value(), 0u);
  EXPECT_EQ(reg.find_counter("trace.empty.rtt_samples")->value(), 0u);
  EXPECT_EQ(reg.find_histogram("trace.empty.rtt_ms")->count(), 0u);
}

// The acceptance check for the whole subsystem: a genuine 2-depot cascade,
// with live instruments attached to every socket and depot plus trace
// capture, must produce registry values that agree with trace::analysis on
// the same run.
TEST(MetricsIntegration, ChainMetricsAgreeWithTraceAnalysis) {
  exp::ChainParams chain;
  chain.depots = 2;
  chain.total_loss = 2e-3;  // enough loss that retransmissions occur
  exp::RunConfig params;
  params.mode = exp::Mode::kLsl;
  params.bytes = 4 * util::kMiB;
  params.seed = 42;
  params.capture_traces = true;
  metrics::Registry reg;
  params.metrics = &reg;

  const exp::TransferResult r = exp::run_transfer(
      [&chain](std::uint64_t seed) { return exp::build_chain(chain, seed); },
      params);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.traces.size(), 3u);  // sublink1..3 across 2 depots

  std::uint64_t total_retx = 0;
  for (const auto& rec : r.traces) {
    const std::string label = rec->label();
    SCOPED_TRACE(label);

    // The bridge counters are the analysis values by construction.
    const std::uint64_t analysed = trace::retransmission_count(*rec);
    total_retx += analysed;
    const auto* bridged = reg.find_counter("trace." + label + ".retransmits");
    ASSERT_NE(bridged, nullptr);
    EXPECT_EQ(bridged->value(), analysed);

    const auto samples = trace::rtt_samples(*rec);
    const auto* rtt = reg.find_histogram("trace." + label + ".rtt_ms");
    ASSERT_NE(rtt, nullptr);
    EXPECT_EQ(rtt->count(), samples.size());
    EXPECT_NEAR(rtt->mean(), trace::average_rtt_ms(*rec),
                trace::average_rtt_ms(*rec) * 0.01 + 1e-9);

    // The live socket counted the same retransmissions the trace recorded.
    const auto* live = reg.find_counter("tcp." + label + ".retransmits");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(live->value(), analysed);

    // Live RTT sampling (socket ACK clock) and trace ACK matching are
    // independent derivations of the same signal; they agree closely but
    // not bit-exactly (the trace can't sample the handshake).
    const auto* live_rtt = reg.find_histogram("tcp." + label + ".rtt_ms");
    ASSERT_NE(live_rtt, nullptr);
    EXPECT_NEAR(static_cast<double>(live_rtt->count()),
                static_cast<double>(rtt->count()),
                static_cast<double>(rtt->count()) * 0.02 + 4.0);
    EXPECT_NEAR(live_rtt->mean(), rtt->mean(), rtt->mean() * 0.05);

    // cwnd evolution was sampled on the ACK clock.
    const auto* cwnd = reg.find_timeseries("tcp." + label + ".cwnd_bytes");
    ASSERT_NE(cwnd, nullptr);
    EXPECT_FALSE(cwnd->samples().empty());
  }
  EXPECT_GT(total_retx, 0u);
  EXPECT_EQ(total_retx, r.retransmits);

  // Both depots relayed the whole payload and completed one session each.
  for (const std::string d : {"depot.1", "depot.2"}) {
    SCOPED_TRACE(d);
    const auto* relayed = reg.find_counter(d + ".bytes_relayed");
    ASSERT_NE(relayed, nullptr);
    EXPECT_EQ(relayed->value(), params.bytes);
    const auto* latency = reg.find_histogram(d + ".relay_latency_ms");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), 1u);
    const auto* ring = reg.find_gauge(d + ".ring_occupancy_bytes");
    ASSERT_NE(ring, nullptr);
    EXPECT_LE(ring->max(),
              static_cast<double>(chain.depot.buffer_bytes));
  }
}

}  // namespace
}  // namespace lsl::test
