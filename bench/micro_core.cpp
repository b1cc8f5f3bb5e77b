// Micro-benchmarks (google-benchmark) of the core building blocks: MD5
// hashing, the discrete-event queue, the simulated packet path, the SACK
// interval set, the payload generator, trace analysis, and the PRNG. These
// bound the simulator's own overheads so the figure benches' wall-clock
// behaviour is explainable.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "lsl/payload.hpp"
#include "md5/md5.hpp"
#include "sim/network.hpp"
#include "tcp/stack.hpp"
#include "trace/analysis.hpp"
#include "util/event_queue.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace {

void BM_Md5Throughput(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  lsl::util::Rng rng(1);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    lsl::md5::Md5 h;
    h.update(buf);
    auto d = h.finalize();
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

// Two streams of Arg bytes each, compressed two blocks per pass
// (Md5::update_pair): bytes processed counts both streams.
void BM_Md5PairThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> a(n), b(n);
  lsl::util::Rng rng(1);
  for (auto& byte : a) byte = static_cast<std::uint8_t>(rng());
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    lsl::md5::Md5 x, y;
    lsl::md5::Md5::update_pair(x, a, y, b);
    auto dx = x.finalize();
    auto dy = y.finalize();
    benchmark::DoNotOptimize(dx);
    benchmark::DoNotOptimize(dy);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK(BM_Md5PairThroughput)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    lsl::util::EventQueue q;
    std::uint64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      q.schedule_at(i * 10, [&sum, i] { sum += static_cast<std::uint64_t>(i); });
    }
    q.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EventQueueCancel(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    lsl::util::EventQueue q;
    std::vector<lsl::util::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      ids.push_back(q.schedule_at(i, [] {}));
    }
    for (auto id : ids) q.cancel(id);
    q.run();
    benchmark::DoNotOptimize(q.executed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventQueueCancel)->Arg(1 << 12)->Arg(1 << 16);

// The BM_EventQueueScheduleRun stream through one FIFO lane: a link's
// deliveries or a depot's copy completions. Only the lane's head is in the
// heap, so each event costs a ring push and pop plus one sift.
void BM_EventQueueLane(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    lsl::util::EventQueue q;
    std::uint64_t sum = 0;
    lsl::util::EventLane lane(q, [&sum] { ++sum; });
    for (std::int64_t i = 0; i < n; ++i) lane.push_at(i * 10);
    q.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventQueueLane)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// TcpSocket::arm_rto's pattern: every event (an ACK arriving) cancels one
// of `live` pending retransmission timers and re-arms it a full RTO out,
// so the live set stays steady while each event cancels one key.
void BM_EventQueueRearm(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kEvents = 1 << 14;
  constexpr lsl::util::SimDuration kRto = 1000000;
  constexpr lsl::util::SimDuration kAckGap = 10;
  for (auto _ : state) {
    lsl::util::EventQueue q;
    std::vector<lsl::util::EventId> timers(live);
    for (auto& t : timers) t = q.schedule_in(kRto, [] {});
    for (std::int64_t i = 0; i < kEvents; ++i) {
      auto& t = timers[static_cast<std::size_t>(i) % live];
      q.cancel(t);
      t = q.schedule_in(kRto, [] {});
      q.schedule_in(kAckGap, [] {});
      q.step();
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kEvents);
}
BENCHMARK(BM_EventQueueRearm)->Arg(8)->Arg(64);

// The simulator's packet path end to end: a virtual-payload TCP stream
// from a host through Arg routers into a sink socket that drains it, on
// loss-free links. Each iteration moves 1 MiB more of the one stream;
// items are packet hops (data segments and ACKs, each counted once per
// link it crosses).
void BM_PacketHop(benchmark::State& state) {
  namespace sim = lsl::sim;
  namespace tcp = lsl::tcp;
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  sim::Network net(1);
  sim::LinkConfig link;
  link.rate = lsl::util::DataRate::mbps(100);
  link.delay = lsl::util::millis(2);
  link.queue_bytes = 1 << 20;
  sim::Node& src = net.add_host("src");
  sim::Node* prev = &src;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    // Appended, not "r" + std::to_string(i): g++ 12 at -O3 warns a false
    // -Wrestrict on the one-character prefix insert.
    std::string router = "r";
    router += std::to_string(i);
    sim::Node& r = net.add_router(router);
    net.connect(*prev, r, link);
    prev = &r;
  }
  sim::Node& dst = net.add_host("dst");
  net.connect(*prev, dst, link);

  tcp::TcpConfig cfg;
  cfg.carry_data = false;
  tcp::TcpStack src_stack(net, src, cfg);
  tcp::TcpStack dst_stack(net, dst, cfg);
  std::uint64_t drained = 0;
  dst_stack.listen(80, [&drained](tcp::TcpSocket* s) {
    s->on_readable = [s, &drained] {
      drained += s->recv_virtual(std::numeric_limits<std::uint64_t>::max());
    };
  });
  tcp::TcpSocket* tx = src_stack.connect({dst.id(), 80});

  auto& ev = net.sim().events();
  std::uint64_t written = 0;
  std::uint64_t target = 0;
  const std::uint64_t hops_before = net.total_link_stats().packets_sent;
  for (auto _ : state) {
    target += kChunk;
    while (drained < target) {
      if (written < target) written += tx->send_virtual(target - written);
      if (!ev.step()) break;
    }
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      net.total_link_stats().packets_sent - hops_before));
}
BENCHMARK(BM_PacketHop)->Arg(1)->Arg(4);

void BM_IntervalSetSackPattern(benchmark::State& state) {
  // Emulates a SACK scoreboard: scattered inserts then gap scans.
  const std::int64_t n = state.range(0);
  lsl::util::Rng rng(7);
  for (auto _ : state) {
    lsl::util::IntervalSet set;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t start = rng.uniform_int(0, 1u << 22);
      set.insert(start, start + 1448);
    }
    std::uint64_t holes = 0;
    std::uint64_t from = 0;
    while (auto gap = set.next_gap(from, 1u << 22)) {
      ++holes;
      from = gap->second;
    }
    benchmark::DoNotOptimize(holes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_IntervalSetSackPattern)->Arg(64)->Arg(1024);

void BM_PayloadGenerator(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  lsl::core::PayloadGenerator gen(42);
  for (auto _ : state) {
    gen.generate(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PayloadGenerator)->Arg(16 << 10)->Arg(256 << 10);

void BM_Rng(benchmark::State& state) {
  lsl::util::Rng rng(3);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Rng);

void BM_RttAnalysis(benchmark::State& state) {
  // Build a synthetic trace of n data packets + matching ACKs, then time
  // the ACK-matching RTT derivation (Karn's exclusion included: every 16th
  // segment is retransmitted so the matcher exercises the discard path).
  const std::int64_t n = state.range(0);
  lsl::trace::TraceRecorder rec("synthetic");
  for (std::int64_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 1.0;  // 1 ms per segment
    const auto seq = static_cast<std::uint64_t>(i) * 1448;
    lsl::trace::TraceEvent data;
    data.time = lsl::util::millis(t);
    data.outgoing = true;
    data.seq = seq;
    data.payload = 1448;
    data.retransmit = (i % 16) == 15;
    rec.record(data);
    lsl::trace::TraceEvent ack;
    ack.time = lsl::util::millis(t + 30.0);
    ack.outgoing = false;
    ack.flags = lsl::sim::kFlagAck;
    ack.ack = seq + 1448;
    rec.record(ack);
  }
  for (auto _ : state) {
    auto samples = lsl::trace::rtt_samples(rec);
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RttAnalysis)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
