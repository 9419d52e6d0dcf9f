// Incremental vs reference T-interval connectivity checking.
//
// The incremental checker (graph/interval.hpp) maintains per-edge run
// lengths across window shifts and answers max_interval_connectivity in
// one forward pass; the *_reference forms recompute every window's
// intersection from scratch (O(rounds * T) graph work per T probed).
// This bench times both on the same EMDG traces and reports the speedup —
// tests/graph/test_interval_incremental.cpp pins that they agree.
#include "common.hpp"

#include <chrono>
#include <functional>

#include "graph/interval.hpp"
#include "graph/markovian.hpp"

using namespace hinet;

namespace {

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps =
      args.get_uint("reps", 3, "timed repetitions (best is kept)");
  const auto seed = args.get_uint("seed", 1, "trace seed");

  return bench::run_main(args, "T-interval checker throughput", [&] {
    std::cout << "=== max_interval_connectivity: incremental vs reference "
                 "(EMDG traces, seed=" << seed << ") ===\n\n";
    TextTable t({"n", "rounds", "T*", "incremental s", "reference s",
                 "speedup"});
    struct Size {
      std::size_t nodes;
      std::size_t rounds;
    };
    for (const Size& s : {Size{32, 64}, Size{64, 128}, Size{128, 192}}) {
      MarkovianConfig cfg;
      cfg.nodes = s.nodes;
      cfg.rounds = s.rounds;
      cfg.initial = 0.4;
      cfg.birth = 0.10;
      cfg.death = 0.05;  // sticky edges so nontrivial windows stay stable
      cfg.seed = seed;
      GraphSequence seq = make_edge_markovian_trace(cfg);

      std::size_t t_star = 0;
      double inc = -1.0;
      double ref = -1.0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const double a = time_once(
            [&] { t_star = max_interval_connectivity(seq, s.rounds); });
        std::size_t t_ref = 0;
        const double b = time_once([&] {
          t_ref = max_interval_connectivity_reference(seq, s.rounds);
        });
        HINET_ENSURE(t_star == t_ref, "checkers disagree");
        if (inc < 0.0 || a < inc) inc = a;
        if (ref < 0.0 || b < ref) ref = b;
      }
      t.add(s.nodes, s.rounds, t_star, inc, ref, ref / inc);
    }
    std::cout << t;
    std::cout << "\nBoth forms answer the largest T such that the trace is "
                 "T-interval connected;\nthe incremental form is the one "
                 "the online assumption monitor streams with.\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
