// mobile_resume — session survival across roaming disconnects.
//
// The paper's §III: "Intermittently connected devices could use the session
// layer to mitigate connection creation overhead and the effects of roaming
// (in that the ultimate server need not know of an address change)." This
// example runs a transfer through one depot (exp::build_chain) whose
// client-side sublink is torn down twice in flight — the `disconnect` fault
// at 0.6 s and 1.4 s. Each time, the client redials the depot with a resume
// header; the depot, which parks a broken session for up to a minute,
// continues it over the SAME depot-to-server connection, so the server
// never sees the roam. exp::run_chaos drives the run, and the server
// verifies the delivered stream byte for byte.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/chaos.hpp"
#include "fault/spec.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace lsl;

  exp::ChaosParams p;
  p.bytes = 8 * util::kMiB;
  if (argc > 1) p.bytes = std::strtoull(argv[1], nullptr, 10);
  p.seed = 2026;
  p.chain.depots = 1;
  p.chain.depot.resume_grace = 60 * util::kSecond;
  p.resumable_attempts = true;
  std::string err;
  p.plan = *fault::parse_fault_spec(
      "disconnect:at=600ms;disconnect:at=1400ms", &err);

  std::printf("%s from a mobile client to a server via one edge depot; "
              "the client roams at t=0.6 s and t=1.4 s\n",
              util::format_bytes(p.bytes).c_str());
  const exp::ChaosResult r = exp::run_chaos(p);
  if (!r.completed) {
    std::fprintf(stderr, "transfer did not complete\n");
    return 1;
  }
  std::printf("\ncompleted in %.2f s (simulated), %.2f Mbit/s\n", r.seconds,
              r.mbps);
  std::printf("roams (faults injected) : %llu\n",
              static_cast<unsigned long long>(r.faults_injected));
  std::printf("reconnect/resume cycles : %zu\n", r.resumes);
  std::printf("content verification    : %s\n",
              r.verified ? "EVERY BYTE CORRECT" : "MISMATCH");
  return r.verified ? 0 : 1;
}
