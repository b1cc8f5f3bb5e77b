// Ablation: number of cascaded depots. Holding the total path (delay and
// loss budget) constant, each additional depot shortens every control
// loop's RTT — but adds a handshake, a copy stage and per-session setup.
// The gain should grow with diminishing returns and eventually flatten.
#include "bench_common.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

int main() {
  using namespace lsl;
  util::Table t(
      "Ablation: cascaded depot count (32MB, 57ms / 2.8e-4-loss path)",
      {"depots", "mbps", "sd", "gain_vs_direct_%"});
  double direct = 0.0;
  for (std::size_t depots : {0u, 1u, 2u, 3u, 4u}) {
    exp::ChainParams p;
    p.depots = depots;
    exp::RunConfig cfg;
    cfg.mode = depots == 0 ? exp::Mode::kDirectTcp : exp::Mode::kLsl;
    cfg.bytes = 32 * util::kMiB;
    cfg.seed = bench::base_seed();
    util::RunningStats s;
    for (const exp::TransferResult& r : exp::run_many(
             [&p](std::uint64_t seed) { return exp::build_chain(p, seed); },
             cfg, bench::iterations(4))) {
      if (r.completed) s.add(r.mbps);
    }
    if (depots == 0) direct = s.mean();
    t.add_row({util::Cell(static_cast<std::uint64_t>(depots)),
               util::Cell(s.mean(), 2), util::Cell(s.stddev(), 2),
               util::Cell(direct > 0 ? (s.mean() / direct - 1.0) * 100.0 : 0.0,
                          1)});
  }
  bench::emit(t, "abl_depot_count");
  return 0;
}
