// Real-socket tracing, end to end: a traced session crossing a cascade of
// in-process lsd daemons leaves joinable span dumps at every hop,
// tools/lsl_spans merges them into one timeline (and a Chrome trace), the
// admin socket answers during a live transfer, and a SIGTERM'd lsd_relay
// subprocess dumps its flight recorder on the way out.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/epoll_engine.hpp"
#include "posix/admin.hpp"
#include "posix/client.hpp"
#include "posix/lsd.hpp"
#include "posix_test_util.hpp"
#include "span/span.hpp"
#include "util/units.hpp"

namespace lsl::test {
namespace {

using engine::EpollEngine;
using posix::InetAddress;
using posix::Lsd;
using posix::LsdConfig;
using posix::PosixSinkServer;
using posix::PosixSource;
using posix::PosixSourceConfig;
using posix::SinkResult;

bool drive(EpollEngine& loop, const bool& done, double timeout_s = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  return done;
}

bool loopback_available() {
  try {
    EpollEngine loop;
    PosixSinkServer probe(loop, InetAddress::loopback(0), false, 1);
    return probe.port() != 0;
  } catch (const std::exception&) {
    return false;
  }
}

#define REQUIRE_LOOPBACK()                                     \
  if (!loopback_available()) {                                 \
    GTEST_SKIP() << "loopback sockets unavailable in sandbox"; \
  }

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Run `cmd` via popen, return (exit_ok, stdout).
std::pair<bool, std::string> run_tool(const std::string& cmd) {
  FILE* p = ::popen(cmd.c_str(), "r");
  if (!p) return {false, {}};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  const int rc = ::pclose(p);
  return {WIFEXITED(rc) && WEXITSTATUS(rc) == 0, out};
}

TEST(SpanPosix, ThreeHopCascadeMergesIntoOneTimeline) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 99);

  // Tracers outlive the daemons (Lsd teardown flushes through them).
  span::Tracer t1("depot1"), t2("depot2"), t3("depot3");
  Lsd d1(loop, LsdConfig{}), d2(loop, LsdConfig{}), d3(loop, LsdConfig{});
  d1.set_tracer(&t1);
  d2.set_tracer(&t2);
  d3.set_tracer(&t3);

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  const std::uint64_t trace = span::mint_trace_id(4242);
  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(d1.port()),
               InetAddress::loopback(d2.port()),
               InetAddress::loopback(d3.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 4 * util::kMiB;
  cfg.payload_seed = 99;
  cfg.trace_id = trace;
  PosixSource src(loop, cfg);
  src.start();

  ASSERT_TRUE(drive(loop, done));
  EXPECT_TRUE(result.verified);
  ASSERT_TRUE(result.header.has_value());
  EXPECT_EQ(result.header->trace_id, trace);  // survived all three hops
  EXPECT_TRUE(result.header->hops.empty());

  // Let the depots observe the reverse-path status byte and finish.
  for (int i = 0; i < 100 && d1.stats().sessions_completed == 0; ++i) {
    loop.run_once(10);
  }

  // Every hop recorded the full lifecycle against the same trace id.
  for (span::Tracer* t : {&t1, &t2, &t3}) {
    std::vector<span::SpanRecord> spans;
    t->recorder().snapshot(spans);
    ASSERT_FALSE(spans.empty()) << t->source();
    std::set<std::string> names;
    for (const auto& s : spans) {
      EXPECT_EQ(s.trace_id, trace) << t->source();
      names.insert(s.name);
    }
    EXPECT_TRUE(names.count(span::kSpanAccept)) << t->source();
    EXPECT_TRUE(names.count(span::kSpanHeaderRead)) << t->source();
    EXPECT_TRUE(names.count(span::kSpanDial)) << t->source();
    EXPECT_TRUE(names.count(span::kSpanStreamWindow)) << t->source();
  }

  // Dump per-depot files and merge them with the real tool.
  const std::string f1 = temp_path("span3_d1.jsonl");
  const std::string f2 = temp_path("span3_d2.jsonl");
  const std::string f3 = temp_path("span3_d3.jsonl");
  const std::string chrome = temp_path("span3_chrome.json");
  ASSERT_TRUE(span::dump_file(t1, f1));
  ASSERT_TRUE(span::dump_file(t2, f2));
  ASSERT_TRUE(span::dump_file(t3, f3));

  const auto [ok, out] = run_tool(std::string(LSL_SPANS_BIN) +
                                  " --chrome=" + chrome + " " + f1 + " " +
                                  f2 + " " + f3 + " 2>&1");
  ASSERT_TRUE(ok) << out;

  // One merged timeline keyed by the trace id, all three hops present in
  // route order with per-hop dial + stream numbers.
  EXPECT_NE(out.find("trace " + hex16(trace)), std::string::npos) << out;
  EXPECT_NE(out.find("3 hops"), std::string::npos) << out;
  const auto p1 = out.find(t1.source());
  const auto p2 = out.find(t2.source());
  const auto p3 = out.find(t3.source());
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  EXPECT_LT(p1, p2);  // hop order = first-appearance = route order
  EXPECT_LT(p2, p3);
  EXPECT_NE(out.find("dial"), std::string::npos);

  // The Chrome export is a JSON object with trace events for every hop.
  const std::string trace_json = slurp(chrome);
  ASSERT_FALSE(trace_json.empty());
  EXPECT_EQ(trace_json.front(), '{');
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("span.dial"), std::string::npos);
  EXPECT_NE(trace_json.find(t3.source()), std::string::npos);
  EXPECT_EQ(trace_json.back(), '\n');
}

/// Nonblocking Unix-domain client for the admin protocol: sends one
/// command line, drives the shared loop until the blank-line terminator
/// arrives, returns the response (without the terminator).
std::string admin_query(EpollEngine& loop, const std::string& socket_path,
                        const std::string& command) {
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0 &&
      errno != EINPROGRESS && errno != EAGAIN) {
    ::close(fd);
    return {};
  }
  const std::string line = command + "\n";
  // The command is tiny; a Unix socket's fresh send buffer takes it whole.
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    ::close(fd);
    return {};
  }
  std::string resp;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (resp.find("\n\n") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(20);  // the server answers from this same loop
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) resp.append(buf, n);
    if (n == 0) break;  // server closed
  }
  ::close(fd);
  const auto end = resp.find("\n\n");
  return end == std::string::npos ? resp : resp.substr(0, end + 1);
}

TEST(SpanPosix, AdminSocketAnswersDuringLiveTransfer) {
  REQUIRE_LOOPBACK();
  EpollEngine loop;
  PosixSinkServer sink(loop, InetAddress::loopback(0), true, 5);
  span::Tracer tracer("lsd.admin");
  Lsd depot(loop, LsdConfig{});
  depot.set_tracer(&tracer);

  const std::string sock_path = temp_path("lsd_admin.sock");
  posix::AdminServer admin(loop, sock_path, depot);
  admin.set_tracer(&tracer);

  // Before any traffic the recorder is empty; the response must still
  // carry a line (a bare blank-line frame is indistinguishable from a
  // partial read for simple clients).
  const std::string empty_spans = admin_query(loop, sock_path, "spans");
  EXPECT_NE(empty_spans.find("{\"spans\":0}"), std::string::npos)
      << empty_spans;

  bool done = false;
  SinkResult result;
  sink.on_complete = [&](const SinkResult& r) {
    result = r;
    done = true;
  };

  PosixSourceConfig cfg;
  cfg.route = {InetAddress::loopback(depot.port())};
  cfg.destination = InetAddress::loopback(sink.port());
  cfg.payload_bytes = 48 * util::kMiB;  // big enough to query mid-flight
  cfg.payload_seed = 5;
  cfg.trace_id = span::mint_trace_id(5);
  PosixSource src(loop, cfg);
  src.start();

  // Wait for the relay to go live, then interrogate it mid-transfer.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (depot.live_relays() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(20);
  }
  ASSERT_GE(depot.live_relays(), 1u);

  const std::string health = admin_query(loop, sock_path, "health");
  ASSERT_FALSE(health.empty());
  EXPECT_NE(health.find("\"live_relays\":"), std::string::npos) << health;
  EXPECT_NE(health.find("\"draining\":false"), std::string::npos) << health;

  const std::string stats = admin_query(loop, sock_path, "stats");
  EXPECT_NE(stats.find("sessions_accepted"), std::string::npos) << stats;

  const std::string spans = admin_query(loop, sock_path, "spans");
  EXPECT_NE(spans.find("span.accept"), std::string::npos) << spans;
  EXPECT_NE(spans.find(hex16(cfg.trace_id)), std::string::npos) << spans;

  const std::string bogus = admin_query(loop, sock_path, "selfdestruct");
  EXPECT_NE(bogus.find("\"error\""), std::string::npos) << bogus;

  ASSERT_TRUE(drive(loop, done, 60.0));
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.payload_bytes, 48 * util::kMiB);
}

// The daemon binary, asked for an ephemeral port with two shards, dumps
// its flight recorder on SIGTERM under the source name of the port it
// actually bound — so per-depot dumps of ephemeral-port daemons stay
// distinct tracks when tools/lsl_spans merges them.
TEST(SpanPosix, SigtermedDaemonDumpsFlightRecorder) {
  REQUIRE_LOOPBACK();
  const std::string dump = temp_path("lsd_sigterm_spans.jsonl");
  std::remove(dump.c_str());

  SpawnedDaemon d =
      spawn_daemon(LSD_RELAY_BIN, {"--spans-out=" + dump, "--shards=2"});
  ASSERT_NE(d.port, 0) << d.output;
  const std::uint16_t port = d.port;
  EXPECT_EQ(reap_daemon(d, SIGTERM), 0) << d.output;  // clean drain

  // The exit path dumped the flight recorder: an idle daemon still emits
  // the node-scope drain span (trace id 0), one per shard.
  const std::string dumped = slurp(dump);
  ASSERT_FALSE(dumped.empty()) << "no span dump at " << dump;
  EXPECT_NE(dumped.find("span.drain"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("\"trace\":\"0000000000000000\""), std::string::npos)
      << dumped;
  const std::string src = "\"src\":\"lsd." + std::to_string(port) + "\"";
  EXPECT_NE(dumped.find(src), std::string::npos) << dumped;
  EXPECT_EQ(dumped.find("\"src\":\"lsd.0\""), std::string::npos) << dumped;
}

}  // namespace
}  // namespace lsl::test
