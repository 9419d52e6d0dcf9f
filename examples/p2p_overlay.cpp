// Peer-to-peer overlay scenario — the second network class the paper's
// introduction motivates ("wireless ad hoc network or a peer-2-peer
// overlay network").  Overlay links appear and disappear as peers open
// and close connections, modelled by an edge-Markovian dynamic graph; a
// super-peer hierarchy is maintained on top, and content announcements
// (tokens) are disseminated with Algorithm 2, gossip, and RLNC.
//
//   ./examples/p2p_overlay [--peers=N] [--announcements=K] [--seed=S]
#include <iostream>
#include <stdexcept>

#include "analysis/assignment.hpp"
#include "analysis/model_estimation.hpp"
#include "baseline/gossip.hpp"
#include "baseline/klo.hpp"
#include "baseline/network_coding.hpp"
#include "cluster/maintenance.hpp"
#include "cluster/metrics.hpp"
#include "core/alg2.hpp"
#include "graph/markovian.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto peers = args.get_uint("peers", 40, "overlay size");
  const auto k =
      args.get_uint("announcements", 6, "content announcements (tokens)");
  const double session_open =
      args.get_double("open", 0.06, "P(connection opens) per round");
  const double session_close =
      args.get_double("close", 0.04, "P(connection closes) per round");
  const auto seed = args.get_uint("seed", 21, "seed");
  if (args.help_requested()) {
    std::cout << args.usage("p2p_overlay: dissemination on a churning overlay");
    return 0;
  }

  const std::size_t rounds = 2 * peers;
  std::cout << "p2p overlay example\n===================\n\n"
            << peers << " peers, connection open/close probabilities "
            << session_open << "/" << session_close << " per round, " << k
            << " announcements, " << rounds << " rounds.\n\n";

  MarkovianConfig mc;
  mc.nodes = peers;
  mc.birth = session_open;
  mc.death = session_close;
  mc.initial = edge_markovian_stationary_density(session_open, session_close);
  mc.rounds = rounds;
  mc.seed = seed;
  GraphSequence overlay = make_edge_markovian_trace(mc);

  // Super-peer hierarchy: highest-degree peers become heads (the classic
  // super-peer criterion), maintained with least-cluster-change.
  MaintainedHierarchy mh =
      maintain_over(overlay, rounds, highest_degree_clustering);
  const HierarchyMetrics hm = measure_hierarchy(mh.hierarchy, rounds);
  std::cout << "Super-peer hierarchy (highest-degree + LCC maintenance):\n"
            << "  mean super-peers: " << hm.mean_heads
            << "  max: " << hm.max_heads
            << "  mean leaf peers: " << hm.mean_members
            << "  re-affiliations: " << mh.stats.reaffiliations << "\n";

  // Which (T, L) does this overlay actually provide?
  {
    std::vector<Graph> graphs;
    for (Round r = 0; r < rounds; ++r) graphs.push_back(overlay.graph_at(r));
    HierarchySequence hier_copy = [&] {
      std::vector<HierarchyView> views;
      for (Round r = 0; r < rounds; ++r) {
        views.push_back(mh.hierarchy.hierarchy_at(r));
      }
      return HierarchySequence(std::move(views));
    }();
    Ctvg trace(GraphSequence(std::move(graphs)), std::move(hier_copy));
    const StabilityEstimate est = estimate_stability(trace, rounds, 12);
    std::cout << "  empirical stability: head-set T=" << est.max_t_stable_head_set
              << ", hierarchy T=" << est.max_t_stable_hierarchy
              << ", head-connectivity T=" << est.max_t_head_connectivity
              << ", worst L=" << est.worst_l << "\n\n";
  }

  Rng arng(seed ^ 0xbeefULL);
  const auto init =
      assign_tokens(peers, k, AssignmentMode::kDistinctRandom, arng);

  TextTable t({"protocol", "delivered", "rounds", "packets", "tokens sent"});
  auto add = [&](const char* name, const SimMetrics& m) {
    t.add(name, m.all_delivered ? "yes" : "no",
          m.all_delivered ? std::to_string(m.rounds_to_completion) : "-",
          m.packets_sent, m.tokens_sent);
  };
  {
    GraphSequence topo = overlay;
    Alg2Params p;
    p.k = k;
    p.rounds = rounds;
    Engine e(topo, &mh.hierarchy, make_alg2_processes(init, p));
    add("Algorithm 2 (super-peers)",
        e.run({.max_rounds = rounds, .stop_when_complete = false}));
  }
  {
    GraphSequence topo = overlay;
    KloFloodParams p;
    p.k = k;
    p.rounds = rounds;
    Engine e(topo, nullptr, make_klo_flood_processes(init, p));
    add("KLO token forwarding [7]",
        e.run({.max_rounds = rounds, .stop_when_complete = false}));
  }
  {
    GraphSequence topo = overlay;
    GossipParams p;
    p.k = k;
    p.rounds = rounds;
    p.seed = seed;
    p.push_full_set = true;
    Engine e(topo, nullptr, make_gossip_processes(init, p));
    add("push gossip (full set)",
        e.run({.max_rounds = rounds, .stop_when_complete = false}));
  }
  {
    GraphSequence topo = overlay;
    NetworkCodingParams p;
    p.k = k;
    p.rounds = rounds;
    p.seed = seed;
    Engine e(topo, nullptr, make_network_coding_processes(init, p));
    add("RLNC (Haeupler-Karger [8])",
        e.run({.max_rounds = rounds, .stop_when_complete = false}));
  }
  std::cout << t;
  std::cout << "\nSuper-peer dissemination silences leaf peers, which is "
               "where the savings come\nfrom — the same structural argument "
               "the paper makes for MANETs.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  std::cerr << "usage error: " << e.what() << '\n';
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
