// Regenerates Fig. 2: the relationship tree among Definitions 2-8 — and,
// beyond the paper's static drawing, *audits* the implication structure on
// generated traces: whenever a parent definition holds, its children must
// hold too.
#include "common.hpp"

#include "core/hinet_generator.hpp"
#include "core/hinet_properties.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto seeds = args.get_uint("seeds", 8, "number of audited traces");

  return bench::run_main(args, "Fig. 2 — definition relationship tree", [&] {
    std::cout << "=== Fig. 2: Relationship among definitions on dynamics of "
                 "clusters ===\n\n";
    std::cout <<
        "  (T,L)-HiNet (Def. 8)\n"
        "  ├── T-interval Stable Hierarchy, Th (Def. 4)\n"
        "  │   ├── T-interval Stable Cluster Head Set, Ts (Def. 2)\n"
        "  │   └── T-interval Stable Cluster, Tc (Def. 3, every cluster)\n"
        "  └── T-interval L-hop Cluster Head Connectivity (Def. 7)\n"
        "      ├── T-interval Cluster Head Connectivity, Td (Def. 5)\n"
        "      └── L-hop Cluster Head Connectivity (Def. 6)\n\n";

    std::cout << "Implication audit on " << seeds
              << " generated traces (parent holds => children hold):\n\n";
    TextTable t({"seed", "Def8", "Def4", "Def2", "Def3(all)", "Def7", "Def5",
                 "Def6<=L", "consistent"});
    std::size_t violations = 0;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      HiNetConfig cfg;
      cfg.nodes = 36;
      cfg.heads = 5;
      cfg.phase_length = 6;
      cfg.phases = 4;
      cfg.hop_l = 2;
      cfg.reaffiliation_prob = 0.25;
      cfg.churn_edges = 4;
      cfg.seed = seed;
      HiNetTrace trace = make_hinet_trace(cfg);
      Ctvg& g = trace.ctvg;
      const std::size_t rounds = g.round_count();
      const bool d8 = static_cast<bool>(
          check_hinet(g, rounds, cfg.phase_length, cfg.hop_l));
      const bool d4 =
          static_cast<bool>(check_stable_hierarchy(g, rounds, cfg.phase_length));
      const bool d2 =
          static_cast<bool>(check_stable_head_set(g, rounds, cfg.phase_length));
      bool d3 = true;
      for (NodeId kk = 0; kk < g.node_count(); ++kk) {
        d3 = d3 && static_cast<bool>(
                       check_stable_cluster(g, rounds, cfg.phase_length, kk));
      }
      const bool d7 = static_cast<bool>(
          check_t_interval_l_hop(g, rounds, cfg.phase_length, cfg.hop_l));
      const bool d5 =
          static_cast<bool>(check_head_connectivity(g, rounds, cfg.phase_length));
      const int l0 = measure_l_hop(g, 0);
      const bool d6 = l0 >= 0 && l0 <= cfg.hop_l;

      const bool consistent = (!d8 || (d4 && d7)) && (!d4 || (d2 && d3)) &&
                              (!d7 || (d5 && d6));
      if (!consistent) ++violations;
      auto yn = [](bool b) { return b ? "yes" : "no"; };
      t.add(seed, yn(d8), yn(d4), yn(d2), yn(d3), yn(d7), yn(d5), yn(d6),
            consistent ? "OK" : "VIOLATED");
    }
    std::cout << t;
    std::cout << "\nImplication violations: " << violations << '\n';
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
