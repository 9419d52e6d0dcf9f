// trace_tool: generate / validate / estimate / export CTVG traces from the
// command line — the operational companion to the library.
//
//   ./examples/trace_tool --mode=generate --out=trace.txt [gen options]
//   ./examples/trace_tool --mode=validate --in=trace.txt [--t=T --l=L]
//   ./examples/trace_tool --mode=estimate --in=trace.txt
//   ./examples/trace_tool --mode=dot --in=trace.txt [--round=R]
//
// generate  builds a (T, L)-HiNet trace and writes the portable text
//           format of core/trace_io.hpp;
// validate  structural validation + Definition 8 check at given (T, L);
// estimate  empirical stability estimation (largest T, worst L);
// dot       Graphviz export of one round (pipe into `dot -Tsvg`).
#include <iostream>
#include <stdexcept>

#include "analysis/model_estimation.hpp"
#include "cluster/dot.hpp"
#include "cluster/maintenance.hpp"
#include "core/hinet_generator.hpp"
#include "core/trace_io.hpp"
#include "graph/markovian.hpp"
#include "graph/mobility.hpp"
#include "util/cli.hpp"

using namespace hinet;

namespace {

/// Builds an organic CTVG: a flat dynamics source plus a maintained
/// lowest-ID hierarchy — the input the `estimate` mode is made for.
Ctvg organic_trace(const std::string& kind, std::size_t nodes,
                   std::size_t rounds, std::uint64_t seed) {
  GraphSequence topo = [&]() -> GraphSequence {
    if (kind == "emdg") {
      MarkovianConfig mc;
      mc.nodes = nodes;
      mc.birth = 0.08;
      mc.death = 0.06;
      mc.initial = edge_markovian_stationary_density(mc.birth, mc.death);
      mc.rounds = rounds;
      mc.seed = seed;
      return make_edge_markovian_trace(mc);
    }
    MobilityConfig mob;
    mob.nodes = nodes;
    mob.rounds = rounds;
    mob.radius = 0.3;
    mob.seed = seed;
    if (kind == "manhattan") mob.model = MobilityModel::kManhattan;
    MobilityTrace trace(mob);
    return trace.network();
  }();
  MaintainedHierarchy mh = maintain_over(topo, rounds);
  std::vector<Graph> graphs;
  for (Round r = 0; r < rounds; ++r) graphs.push_back(topo.graph_at(r));
  return Ctvg(GraphSequence(std::move(graphs)), std::move(mh.hierarchy));
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const std::string mode =
      args.get_string("mode", "generate", "generate|validate|estimate|dot");
  const std::string in = args.get_string("in", "", "input trace path");
  const std::string out = args.get_string("out", "", "output path (generate)");
  // Generation parameters.
  HiNetConfig cfg;
  cfg.nodes = args.get_uint("nodes", 40, "nodes");
  cfg.heads = args.get_uint("heads", 6, "heads");
  cfg.phase_length = args.get_uint("t", 10, "phase length T");
  cfg.phases = args.get_uint("phases", 4, "phases");
  cfg.hop_l = args.get_int32("l", 2, "L");
  cfg.reaffiliation_prob =
      args.get_double("reaff", 0.2, "re-affiliation probability");
  cfg.churn_edges = args.get_uint("churn", 4, "churn edges/round");
  cfg.stable_heads = args.get_bool("stable-heads", false, "∞-stable head set");
  cfg.seed = args.get_uint("seed", 1, "seed");
  const auto round = args.get_uint("round", 0, "round (dot mode)");
  if (args.help_requested()) {
    std::cout << args.usage("trace_tool: CTVG trace utility");
    return 0;
  }

  const std::string source = args.get_string(
      "source", "hinet", "generate source: hinet|waypoint|manhattan|emdg");

  if (mode == "generate") {
    if (source == "hinet") {
      HiNetTrace trace = make_hinet_trace(cfg);
      if (out.empty()) {
        serialize_ctvg(trace.ctvg, std::cout);
      } else {
        save_ctvg(trace.ctvg, out);
        std::cerr << "wrote " << trace.ctvg.round_count() << " rounds, "
                  << trace.ctvg.node_count() << " nodes to " << out << "\n"
                  << "dynamics: theta=" << trace.stats.theta
                  << " n_m=" << trace.stats.mean_members
                  << " n_r=" << trace.stats.mean_reaffiliations << "\n";
      }
      return 0;
    }
    // Organic sources: flat dynamics + maintained lowest-ID hierarchy.
    Ctvg trace = organic_trace(source, cfg.nodes,
                               cfg.phases * cfg.phase_length, cfg.seed);
    if (out.empty()) {
      serialize_ctvg(trace, std::cout);
    } else {
      save_ctvg(trace, out);
      std::cerr << "wrote " << trace.round_count() << " rounds ("
                << source << " dynamics + maintained hierarchy) to " << out
                << "\n";
    }
    return 0;
  }

  if (in.empty()) {
    std::cerr << "error: --in=<trace file> required for mode " << mode << "\n";
    return 2;
  }
  Ctvg trace = load_ctvg(in);

  if (mode == "validate") {
    const std::string err = trace.validate();
    if (!err.empty()) {
      std::cout << "STRUCTURE: FAIL — " << err << "\n";
      return 1;
    }
    std::cout << "STRUCTURE: OK (" << trace.node_count() << " nodes, "
              << trace.round_count() << " rounds)\n";
    const std::size_t t = cfg.phase_length;
    if (t >= 1 && t <= trace.round_count()) {
      const PropertyResult r =
          check_hinet(trace, trace.round_count(), t, cfg.hop_l);
      std::cout << "(T=" << t << ", L=" << cfg.hop_l << ")-HiNet: "
                << (r ? "OK" : "FAIL — " + r.violation) << "\n";
      return r ? 0 : 1;
    }
    return 0;
  }

  if (mode == "estimate") {
    const StabilityEstimate est =
        estimate_stability(trace, trace.round_count(),
                           std::min<std::size_t>(trace.round_count(), 32));
    std::cout << "max T, stable head set (Def. 2):     "
              << est.max_t_stable_head_set << "\n"
              << "max T, stable hierarchy (Def. 4):    "
              << est.max_t_stable_hierarchy << "\n"
              << "max T, head connectivity (Def. 5):   "
              << est.max_t_head_connectivity << "\n"
              << "worst L (Def. 6):                    " << est.worst_l << "\n"
              << "max T, (T, L)-HiNet (Def. 8):        " << est.max_t_hinet
              << "\n";
    return 0;
  }

  if (mode == "dot") {
    if (round >= trace.round_count()) {
      std::cerr << "error: round " << round << " out of range\n";
      return 2;
    }
    std::cout << to_dot(trace.graph_at(round), trace.hierarchy_at(round));
    return 0;
  }

  std::cerr << "error: unknown mode '" << mode << "'\n";
  return 2;
} catch (const std::invalid_argument& e) {
  std::cerr << "usage error: " << e.what() << '\n';
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
