// Ablation A2: clusters over edge-Markovian dynamics — the Section VI
// future-work direction ("other flat dynamic network models ... should
// also be extended with clusters"), made executable.
//
// Pipeline: EMDG topology -> maintained hierarchy -> (a) estimate which
// (T, L) stability the combination empirically provides, (b) run
// Algorithm 2 vs the flat baselines on the very same trace.
#include "common.hpp"

#include "analysis/assignment.hpp"
#include "analysis/model_estimation.hpp"
#include "baseline/klo.hpp"
#include "baseline/network_coding.hpp"
#include "cluster/maintenance.hpp"
#include "core/alg2.hpp"
#include "graph/interval.hpp"
#include "graph/markovian.hpp"
#include "sim/engine.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto nodes = args.get_uint("nodes", 32, "network size");
  const auto k = args.get_uint("k", 5, "token count");
  const auto seed = args.get_uint("seed", 13, "seed");

  return bench::run_main(args, "A2 — clusters over EMDG dynamics", [&] {
    std::cout << "=== A2: cluster hierarchy over an edge-Markovian dynamic "
                 "graph ===\n\n";
    TextTable est_t({"birth", "death", "density", "1-int conn", "max T (Def2)",
                     "max T (Def4)", "max T (Def5)", "worst L",
                     "max T (Def8)"});
    struct Case {
      double birth, death;
    };
    const Case cases[] = {{0.02, 0.02}, {0.08, 0.05}, {0.15, 0.3}};
    const std::size_t rounds = 2 * nodes;
    for (const Case& c : cases) {
      MarkovianConfig mc;
      mc.nodes = nodes;
      mc.birth = c.birth;
      mc.death = c.death;
      mc.initial = edge_markovian_stationary_density(c.birth, c.death);
      mc.rounds = rounds;
      mc.seed = seed;
      GraphSequence net = make_edge_markovian_trace(mc);
      MaintainedHierarchy mh = maintain_over(net, rounds);
      std::vector<Graph> graphs;
      for (Round r = 0; r < rounds; ++r) graphs.push_back(net.graph_at(r));
      GraphSequence topo(std::move(graphs));
      const bool one_conn = is_one_interval_connected(topo, rounds);
      Ctvg trace(std::move(topo), std::move(mh.hierarchy));
      const StabilityEstimate est =
          estimate_stability(trace, rounds, /*t_cap=*/16);
      est_t.add(c.birth, c.death,
                edge_markovian_stationary_density(c.birth, c.death),
                one_conn ? "yes" : "no", est.max_t_stable_head_set,
                est.max_t_stable_hierarchy, est.max_t_head_connectivity,
                est.worst_l, est.max_t_hinet);
    }
    std::cout << est_t << '\n';

    // End-to-end dissemination comparison on one EMDG trace.
    MarkovianConfig mc;
    mc.nodes = nodes;
    mc.birth = 0.08;
    mc.death = 0.05;
    mc.initial = edge_markovian_stationary_density(mc.birth, mc.death);
    mc.rounds = rounds;
    mc.seed = seed;
    GraphSequence net = make_edge_markovian_trace(mc);
    MaintainedHierarchy mh = maintain_over(net, rounds);

    Rng arng(seed ^ 0x99ULL);
    const auto init =
        assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, arng);

    TextTable run_t({"algorithm", "delivered", "rounds", "tokens sent"});
    auto add = [&](const char* name, const SimMetrics& m) {
      run_t.add(name, m.all_delivered ? "yes" : "no",
                m.all_delivered ? std::to_string(m.rounds_to_completion) : "-",
                m.tokens_sent);
    };
    {
      GraphSequence topo = net;
      Alg2Params p;
      p.k = k;
      p.rounds = rounds;
      Engine e(topo, &mh.hierarchy, make_alg2_processes(init, p));
      add("Algorithm 2 (maintained clusters)",
          e.run({.max_rounds = rounds, .stop_when_complete = false}));
    }
    {
      GraphSequence topo = net;
      KloFloodParams p;
      p.k = k;
      p.rounds = rounds;
      Engine e(topo, nullptr, make_klo_flood_processes(init, p));
      add("KLO token forwarding [7]",
          e.run({.max_rounds = rounds, .stop_when_complete = false}));
    }
    {
      GraphSequence topo = net;
      NetworkCodingParams p;
      p.k = k;
      p.rounds = rounds;
      p.seed = seed;
      Engine e(topo, nullptr, make_network_coding_processes(init, p));
      add("RLNC (Haeupler-Karger [8])",
          e.run({.max_rounds = rounds, .stop_when_complete = false}));
    }
    std::cout << run_t;
    std::cout << "\nNote: EMDG gives probabilistic connectivity only; the "
                 "deterministic guarantees\nof Theorems 1-4 do not apply — "
                 "this is the regime the future-work extension\nwould need "
                 "to formalise.\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
