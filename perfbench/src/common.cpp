#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <pthread.h>
#include <span>
#include <sstream>

#include "lsl/payload.hpp"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << json_escape(metrics[i].name) << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \""
       << json_escape(metrics[i].unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

clockid_t this_thread_cpu_clock() {
  clockid_t id = CLOCK_THREAD_CPUTIME_ID;
  ::pthread_getcpuclockid(::pthread_self(), &id);
  return id;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

void SpanLog::record(const char* name, std::uint64_t id, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, start_ns, end_ns});
}

void SpanLog::append(const SpanLog& other) {
  for (const Span& s : other.spans_) {
    record(s.name, s.id, s.parent, s.start_ns, s.end_ns);
  }
  dropped_ += other.dropped_;
}

std::vector<double> SpanLog::durations_ms(const char* name) const {
  std::vector<double> out;
  const std::string want(name);
  for (const Span& s : spans_) {
    if (want == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  if (dropped_ > 0) {
    std::fprintf(stderr, "lsl_perfbench: span log full, %llu span(s) dropped\n",
                 static_cast<unsigned long long>(dropped_));
  }
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

Gauge run_gauge(std::uint64_t seed, std::size_t bytes, SpanLog* spans) {
  Gauge g;
  g.stream.resize(bytes);
  const double mb = static_cast<double>(bytes) / 1e6;

  lsl::core::PayloadGenerator gen(seed);
  const std::int64_t g0 = now_ns();
  gen.generate(g.stream);
  const std::int64_t g1 = now_ns();

  lsl::md5::Md5 hash;
  hash.update(std::span<const std::uint8_t>(g.stream));
  g.digest = hash.finalize();
  const std::int64_t m1 = now_ns();

  if (spans != nullptr) {
    spans->record("lsl.payload_generate", 0, 0, g0, g1);
    spans->record("md5.update", 0, 0, g1, m1);
  }
  g.gen_mb_per_s = mb / (static_cast<double>(g1 - g0) * 1e-9);
  g.md5_mb_per_s = mb / (static_cast<double>(m1 - g1) * 1e-9);
  return g;
}

std::string fingerprint_json(double md5_mb_per_s) {
  utsname u{};
  ::uname(&u);
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(std::min(colon + 2, line.size()));
      }
      break;
    }
  }
  std::ostringstream os;
  os << "{\"fingerprint\": {\"nproc\": " << usable_cpus()
     << ", \"kernel\": \"" << json_escape(u.release) << "\", \"cpu_model\": \""
     << json_escape(model) << "\", \"md5_mb_per_s\": " << number(md5_mb_per_s)
     << "}}";
  return os.str();
}

}  // namespace perfbench
