// Ablation A1: which clustering substrate should carry the hierarchy?
//
// The paper treats clustering as out of scope, but the cost model depends
// on what the clustering delivers (θ, n_m, gateway count, L).  This bench
// runs all three 1-hop schemes plus the d-hop extensions on identical
// topologies and measures the hierarchy shape and the end-to-end cost of
// Algorithm 2 on a maintained mobility trace.
#include "common.hpp"

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "cluster/dhop.hpp"
#include "cluster/maintenance.hpp"
#include "cluster/metrics.hpp"
#include "core/alg2.hpp"
#include "graph/generators.hpp"
#include "graph/mobility.hpp"
#include "sim/engine.hpp"

using namespace hinet;

namespace {

struct Scheme {
  const char* name;
  ClusterMaintainer::InitialClustering fn;
};

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto nodes = args.get_uint("nodes", 48, "network size");
  const auto k = args.get_uint("k", 5, "token count");
  const auto seed = args.get_uint("seed", 7, "seed");

  return bench::run_main(args, "A1 — clustering-scheme ablation", [&] {
    std::cout << "=== A1: clustering substrate ablation ===\n\n";

    // Part 1: hierarchy shape on one random geometric snapshot.
    Rng rng(seed);
    const auto pts = gen::random_points(nodes, rng);
    const Graph g = gen::geometric(pts, 0.3);
    std::cout << "Snapshot: " << nodes << "-node geometric graph, radius "
              << 0.3 << ", " << g.edge_count() << " edges\n\n";
    TextTable shape({"scheme", "heads", "gateways", "members", "L (Def.6)"});
    const Scheme schemes[] = {
        {"lowest-ID", lowest_id_clustering},
        {"highest-degree", highest_degree_clustering},
        {"greedy WCDS", wcds_clustering},
        {"greedy 2-hop", [](const Graph& gg) {
           return greedy_dhop_clustering(gg, 2);
         }},
        {"Max-Min 2-hop", [](const Graph& gg) {
           return maxmin_dhop_clustering(gg, 2);
         }},
    };
    for (const Scheme& s : schemes) {
      const HierarchyView h = s.fn(g);
      shape.add(s.name, h.head_count(), h.gateway_count(), h.member_count(),
                measure_l_hop_connectivity(h, g));
    }
    std::cout << shape << '\n';

    // Part 2: end-to-end Algorithm 2 on a maintained mobility trace, one
    // run per 1-hop scheme (d-hop hierarchies violate Alg. 2's 1-hop
    // member-upload assumption and are excluded).
    std::cout << "Algorithm 2 on a random-waypoint trace, hierarchy "
                 "maintained per scheme:\n\n";
    TextTable e2e({"scheme", "theta", "n_m", "reaffs", "delivered",
                   "tokens sent"});
    for (const Scheme& s : {schemes[0], schemes[1], schemes[2]}) {
      MobilityConfig mob;
      mob.nodes = nodes;
      mob.radius = 0.35;
      mob.rounds = nodes;
      mob.seed = seed;
      MobilityTrace trace(mob);
      MaintainedHierarchy mh = maintain_over(trace.network(), mob.rounds, s.fn);
      const HierarchyMetrics hm = measure_hierarchy(mh.hierarchy, mob.rounds);

      Rng arng(seed ^ 0x77ULL);
      const auto init =
          assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, arng);
      Alg2Params p;
      p.k = k;
      p.rounds = mob.rounds;
      Engine engine(trace.network(), &mh.hierarchy,
                    make_alg2_processes(init, p));
      const SimMetrics m =
          engine.run({.max_rounds = mob.rounds, .stop_when_complete = false});
      e2e.add(s.name, hm.max_heads, hm.mean_members,
              static_cast<long long>(mh.stats.reaffiliations),
              m.all_delivered ? "yes" : "no", m.tokens_sent);
    }
    // Flat baseline for reference.
    {
      MobilityConfig mob;
      mob.nodes = nodes;
      mob.radius = 0.35;
      mob.rounds = nodes;
      mob.seed = seed;
      MobilityTrace trace(mob);
      Rng arng(seed ^ 0x77ULL);
      const auto init =
          assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, arng);
      KloFloodParams p;
      p.k = k;
      p.rounds = mob.rounds;
      Engine engine(trace.network(), nullptr,
                    make_klo_flood_processes(init, p));
      const SimMetrics m =
          engine.run({.max_rounds = mob.rounds, .stop_when_complete = false});
      e2e.add("(flat KLO reference)", "-", "-", "-",
              m.all_delivered ? "yes" : "no", m.tokens_sent);
    }
    std::cout << e2e;
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
