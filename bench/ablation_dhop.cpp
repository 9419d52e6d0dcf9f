// Ablation A5: 1-hop vs multi-hop clusters — the paper's future-work
// question evaluated end to end.
//
// On identical geometric topologies: cluster with radius d in {1, 2, 3},
// disseminate with the tree-based multi-hop algorithm, and compare the
// hierarchy shape (θ shrinks with d) and total communication against the
// 1-hop Algorithm 2 and flat KLO forwarding.
#include "common.hpp"

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "cluster/algorithms.hpp"
#include "cluster/dhop.hpp"
#include "core/alg2.hpp"
#include "core/alg_dhop.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto nodes = args.get_uint("nodes", 60, "network size");
  const auto k = args.get_uint("k", 6, "token count");
  const auto reps = args.get_uint("reps", 3, "topologies");

  return bench::run_main(args, "A5 — 1-hop vs multi-hop clusters", [&] {
    HINET_REQUIRE(reps >= 1, "need at least one repetition");
    std::cout << "=== A5: multi-hop clusters (Section VI future work), "
                 "static geometric topologies ===\n\n";
    TextTable t({"scheme", "heads (mean)", "delivered", "rounds (mean)",
                 "tokens (mean)"});

    struct Cell {
      std::string name;
      double heads_sum = 0.0;
      double rounds_sum = 0.0;
      double tokens_sum = 0.0;
      std::size_t delivered = 0;
    };
    std::vector<Cell> cells;
    cells.push_back({"1-hop lowest-ID + Algorithm 2", 0, 0, 0, 0});
    for (int d : {1, 2, 3}) {
      cells.push_back({"greedy " + std::to_string(d) + "-hop + tree dissem.",
                       0, 0, 0, 0});
    }
    cells.push_back({"flat KLO forwarding", 0, 0, 0, 0});

    const std::size_t rounds = 3 * nodes;
    for (std::uint64_t seed = 0; seed < reps; ++seed) {
      Rng rng(seed ^ 0x5eedULL);
      const auto pts = gen::random_points(nodes, rng);
      Graph g = gen::geometric(pts, 0.28);
      if (!g.is_connected()) {
        // Densify until connected so every algorithm can finish.
        double r = 0.28;
        while (!g.is_connected() && r < 1.0) {
          r += 0.04;
          g = gen::geometric(pts, r);
        }
      }
      Rng arng(seed ^ 0xbeadULL);
      const auto init =
          assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, arng);

      auto account = [&](Cell& cell, std::size_t heads, const SimMetrics& m) {
        cell.heads_sum += static_cast<double>(heads);
        cell.tokens_sum += static_cast<double>(m.tokens_sent);
        if (m.all_delivered) {
          ++cell.delivered;
          cell.rounds_sum += static_cast<double>(m.rounds_to_completion);
        }
      };

      {  // 1-hop Algorithm 2
        const HierarchyView h = lowest_id_clustering(g);
        StaticNetwork net(g);
        HierarchySequence hier({h});
        Alg2Params p;
        p.k = k;
        p.rounds = rounds;
        Engine e(net, &hier, make_alg2_processes(init, p));
        account(cells[0], h.head_count(),
                e.run({.max_rounds = rounds, .stop_when_complete = true}));
      }
      for (int d : {1, 2, 3}) {  // multi-hop tree dissemination
        const HierarchyView h = greedy_dhop_clustering(g, static_cast<std::size_t>(d));
        StaticNetwork net(g);
        HierarchySequence hier({h});
        RoutingSequence routing = build_routing_over(net, hier, rounds);
        DhopParams p;
        p.k = k;
        p.rounds = rounds;
        Engine e(net, &hier, make_dhop_processes(init, p, routing));
        account(cells[static_cast<std::size_t>(d)], h.head_count(),
                e.run({.max_rounds = rounds, .stop_when_complete = true}));
      }
      {  // flat KLO
        StaticNetwork net(g);
        KloFloodParams p;
        p.k = k;
        p.rounds = rounds;
        Engine e(net, nullptr, make_klo_flood_processes(init, p));
        account(cells.back(), 0,
                e.run({.max_rounds = rounds, .stop_when_complete = true}));
      }
    }

    const auto r = static_cast<double>(reps);
    for (const Cell& c : cells) {
      t.add(c.name, c.heads_sum / r,
            std::to_string(c.delivered) + "/" + std::to_string(reps),
            c.delivered > 0 ? c.rounds_sum / static_cast<double>(c.delivered)
                            : 0.0,
            c.tokens_sum / r);
    }
    std::cout << t;
    std::cout << "\nReading: deeper clusters shrink the head set (cheaper "
                 "backbone) while the tree\ndissemination keeps leaf nodes "
                 "on delta-only uploads — the trade the paper's\nfuture-work "
                 "section anticipates, quantified.\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
