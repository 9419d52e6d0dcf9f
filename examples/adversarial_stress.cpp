// Adversarial stress: runs the flat baselines on worst-case T-interval
// connected traces (path backbones relabelled every window, plus churn)
// and on edge-Markovian dynamics, verifying the model checkers agree with
// the generators and showing how flooding/gossip degrade where the
// deterministic algorithms keep their guarantees.
//
//   ./examples/adversarial_stress [--nodes=N] [--k=K] [--seed=S]
#include <iostream>
#include <stdexcept>

#include "analysis/assignment.hpp"
#include "baseline/flooding.hpp"
#include "baseline/gossip.hpp"
#include "baseline/klo.hpp"
#include "graph/adversary.hpp"
#include "graph/interval.hpp"
#include "graph/markovian.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hinet;

namespace {

SimMetrics run_on(GraphSequence& net, std::vector<ProcessPtr> procs,
                  std::size_t rounds) {
  Engine engine(net, nullptr, std::move(procs));
  return engine.run({.max_rounds = rounds, .stop_when_complete = false});
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto n = args.get_uint("nodes", 32, "network size");
  const auto k = args.get_uint("k", 4, "token count");
  const auto seed = args.get_uint("seed", 9, "seed");
  if (args.help_requested()) {
    std::cout << args.usage("adversarial_stress: baselines on hostile traces");
    return 0;
  }

  std::cout << "adversarial dynamics stress test\n"
            << "================================\n\n";

  // --- Worst-case T-interval connected trace (relabelled paths). ---------
  const std::size_t t_interval = 6;
  const std::size_t rounds = 4 * (n - 1);
  AdversaryConfig adv;
  adv.nodes = n;
  adv.interval = t_interval;
  adv.rounds = rounds;
  adv.churn_edges = 4;
  adv.seed = seed;
  GraphSequence worst = make_t_interval_path_trace(adv);
  std::cout << "Worst-case trace: " << n << " nodes, stable path backbone "
            << "relabelled every " << t_interval << " rounds, 4 churn "
            << "edges/round.\n";
  std::cout << "  checker: T-interval connected for T=" << t_interval << ": "
            << (is_t_interval_connected(worst, rounds, t_interval) ? "yes"
                                                                   : "NO")
            << ", measured max T: "
            << max_interval_connectivity(worst, rounds) << "\n\n";

  Rng rng(seed);
  const auto init = assign_tokens(n, k, AssignmentMode::kDistinctRandom, rng);

  TextTable t({"algorithm", "delivered", "rounds", "tokens sent"});
  auto add_row = [&](const char* name, const SimMetrics& m) {
    t.add(name, m.all_delivered ? "yes" : "no",
          m.all_delivered ? std::to_string(m.rounds_to_completion) : "-",
          m.tokens_sent);
  };

  {
    GraphSequence net = worst;
    KloFloodParams p;
    p.k = k;
    p.rounds = rounds;
    add_row("KLO token forwarding",
            run_on(net, make_klo_flood_processes(init, p), rounds));
  }
  {
    GraphSequence net = worst;
    KloPipelineParams p;
    p.k = k;
    p.phase_length = t_interval;
    p.phases = (rounds + t_interval - 1) / t_interval;
    add_row("KLO pipeline (T-interval)",
            run_on(net, make_klo_pipeline_processes(init, p), rounds));
  }
  {
    GraphSequence net = worst;
    FloodingParams p;
    p.k = k;
    p.rounds = rounds;
    p.activity = 2;
    add_row("2-active (parsimonious) flooding",
            run_on(net, make_flooding_processes(init, p), rounds));
  }
  {
    GraphSequence net = worst;
    GossipParams p;
    p.k = k;
    p.rounds = rounds;
    p.seed = seed;
    add_row("push gossip (1 token/round)",
            run_on(net, make_gossip_processes(init, p), rounds));
  }
  std::cout << t;

  // --- Edge-Markovian dynamics (future-work model of Section VI). --------
  std::cout << "\nEdge-Markovian trace (birth=0.05, death=0.3, the Section "
               "VI future-work model):\n";
  MarkovianConfig mc;
  mc.nodes = n;
  mc.birth = 0.05;
  mc.death = 0.3;
  mc.initial = 0.2;
  mc.rounds = rounds;
  mc.seed = seed;
  GraphSequence emdg = make_edge_markovian_trace(mc);
  std::cout << "  stationary density "
            << edge_markovian_stationary_density(mc.birth, mc.death)
            << ", 1-interval connected: "
            << (is_one_interval_connected(emdg, rounds) ? "yes" : "no")
            << "\n\n";

  TextTable t2({"algorithm", "delivered", "rounds", "tokens sent"});
  {
    GraphSequence net = emdg;
    KloFloodParams p;
    p.k = k;
    p.rounds = rounds;
    Engine engine(net, nullptr, make_klo_flood_processes(init, p));
    const SimMetrics m =
        engine.run({.max_rounds = rounds, .stop_when_complete = false});
    t2.add("KLO token forwarding", m.all_delivered ? "yes" : "no",
           m.all_delivered ? std::to_string(m.rounds_to_completion) : "-",
           m.tokens_sent);
  }
  {
    GraphSequence net = emdg;
    GossipParams p;
    p.k = k;
    p.rounds = rounds;
    p.seed = seed;
    p.push_full_set = true;
    Engine engine(net, nullptr, make_gossip_processes(init, p));
    const SimMetrics m =
        engine.run({.max_rounds = rounds, .stop_when_complete = false});
    t2.add("push gossip (full set)", m.all_delivered ? "yes" : "no",
           m.all_delivered ? std::to_string(m.rounds_to_completion) : "-",
           m.tokens_sent);
  }
  std::cout << t2;
  std::cout << "\nNote: on EMDG traces connectivity is probabilistic — "
               "deterministic n-1 round\nguarantees do not apply, which is "
               "exactly why the paper's model assumptions matter.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  std::cerr << "usage error: " << e.what() << '\n';
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
