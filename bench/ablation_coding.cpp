// Ablation A3: token forwarding vs pipelining vs network coding.
//
// Haeupler & Karger [8] improved KLO's bounds via network coding; the
// paper's Section II cites this as the state of the art it trades against.
// This bench measures four dissemination strategies on identical
// adversarial T-interval traces: rounds to completion and tokens sent.
// KLO token forwarding is also classic flooding (Section II).
#include "common.hpp"

#include "analysis/assignment.hpp"
#include "baseline/gossip.hpp"
#include "baseline/klo.hpp"
#include "baseline/network_coding.hpp"
#include "graph/adversary.hpp"
#include "sim/engine.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto nodes = args.get_uint("nodes", 24, "network size");
  const auto k = args.get_uint("k", 6, "token count");
  const auto reps = args.get_uint("reps", 3, "seeds per cell");

  return bench::run_main(args, "A3 — dissemination-strategy ablation", [&] {
    HINET_REQUIRE(reps >= 1, "need at least one repetition");
    std::cout << "=== A3: forwarding vs pipelining vs coding on adversarial "
                 "T-interval traces ===\n\n";
    TextTable t({"T", "algorithm", "delivery%", "rounds (mean)",
                 "tokens (mean)"});
    const std::size_t horizon = 6 * nodes;
    for (std::size_t interval : {1u, 4u, 8u}) {
      struct Cell {
        const char* name;
        std::function<std::vector<ProcessPtr>(const std::vector<TokenSet>&,
                                              std::uint64_t)> make;
      };
      const Cell cells[] = {
          {"KLO token forwarding",
           [&](const std::vector<TokenSet>& init, std::uint64_t) {
             KloFloodParams p;
             p.k = k;
             p.rounds = horizon;
             return make_klo_flood_processes(init, p);
           }},
          {"KLO pipeline",
           [&](const std::vector<TokenSet>& init, std::uint64_t) {
             KloPipelineParams p;
             p.k = k;
             p.phase_length = std::max<std::size_t>(interval, k + 2);
             p.phases = horizon / p.phase_length;
             return make_klo_pipeline_processes(init, p);
           }},
          {"RLNC coding",
           [&](const std::vector<TokenSet>& init, std::uint64_t seed) {
             NetworkCodingParams p;
             p.k = k;
             p.rounds = horizon;
             p.seed = seed ^ 0xabcdULL;
             return make_network_coding_processes(init, p);
           }},
          {"push gossip",
           [&](const std::vector<TokenSet>& init, std::uint64_t seed) {
             GossipParams p;
             p.k = k;
             p.rounds = horizon;
             p.seed = seed ^ 0x1111ULL;
             return make_gossip_processes(init, p);
           }},
      };
      for (const Cell& cell : cells) {
        double rounds_sum = 0.0, tokens_sum = 0.0;
        std::size_t delivered = 0;
        for (std::uint64_t seed = 0; seed < reps; ++seed) {
          AdversaryConfig cfg;
          cfg.nodes = nodes;
          cfg.interval = interval;
          cfg.rounds = horizon;
          cfg.churn_edges = 3;
          cfg.seed = seed;
          GraphSequence net = make_t_interval_trace(cfg);
          Rng rng(seed ^ 0x4242ULL);
          const auto init =
              assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, rng);
          Engine engine(net, nullptr, cell.make(init, seed));
          const SimMetrics m =
              engine.run({.max_rounds = horizon, .stop_when_complete = true});
          if (m.all_delivered) {
            ++delivered;
            rounds_sum += static_cast<double>(m.rounds_to_completion);
          }
          tokens_sum += static_cast<double>(m.tokens_sent);
        }
        const double dr = static_cast<double>(delivered) /
                          static_cast<double>(reps) * 100.0;
        t.add(interval, cell.name, dr,
              delivered > 0 ? rounds_sum / static_cast<double>(delivered)
                            : 0.0,
              tokens_sum / static_cast<double>(reps));
      }
    }
    std::cout << t;
    std::cout << "\nReading: RLNC completes with ~1 token-equivalent per "
                 "packet; the oracle-stopped\ntoken counts here show the "
                 "coding advantage [8] on the same traces the paper's\n"
                 "hierarchy exploits differently (structure vs coding).\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
