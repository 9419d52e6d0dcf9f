// Regenerates Fig. 1: "An Example Network with Clusters" — a snapshot of a
// clustered dynamic network showing heads, gateways and members, produced
// by the actual generator + clustering substrate rather than drawn by
// hand.
#include "common.hpp"

#include "cluster/algorithms.hpp"
#include "core/hinet_generator.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto nodes = args.get_uint("nodes", 16, "node count");
  const auto heads = args.get_uint("heads", 3, "cluster heads");
  const auto seed = args.get_uint("seed", 4, "trace seed");

  return bench::run_main(args, "Fig. 1 — example clustered network", [&] {
    HiNetConfig cfg;
    cfg.nodes = nodes;
    cfg.heads = heads;
    cfg.phase_length = 4;
    cfg.phases = 1;
    cfg.hop_l = 2;
    cfg.churn_edges = 2;
    cfg.seed = seed;
    HiNetTrace trace = make_hinet_trace(cfg);
    const Graph& g = trace.ctvg.graph_at(0);
    const HierarchyView& h = trace.ctvg.hierarchy_at(0);

    std::cout << "=== Fig. 1: An Example Network with Clusters ===\n\n";
    TextTable t({"node", "role", "cluster", "neighbours"});
    for (NodeId v = 0; v < g.node_count(); ++v) {
      std::string neigh;
      for (NodeId u : g.neighbors(v)) {
        if (!neigh.empty()) neigh += ' ';
        neigh += std::to_string(u);
      }
      const ClusterId c = h.cluster_of(v);
      t.add(v, node_role_name(h.role(v)),
            c == kNoCluster ? std::string("-") : std::to_string(c), neigh);
    }
    std::cout << t << '\n';

    std::cout << "Clusters:\n";
    for (NodeId head : h.heads()) {
      std::cout << "  cluster " << head << " = {";
      bool first = true;
      for (NodeId v : h.members_of(head)) {
        if (!first) std::cout << ", ";
        std::cout << v;
        if (h.is_head(v)) std::cout << "(h)";
        else if (h.is_gateway(v)) std::cout << "(g)";
        first = false;
      }
      std::cout << "}\n";
    }

    std::cout << "\nBackbone (heads + gateways): ";
    for (NodeId v : h.backbone()) std::cout << v << ' ';
    std::cout << "\nL-hop cluster-head connectivity (Definition 6): "
              << measure_l_hop_connectivity(h, g) << '\n';
    std::cout << "Structural validation: "
              << (trace.ctvg.validate().empty() ? "OK" : "FAILED") << '\n';
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
