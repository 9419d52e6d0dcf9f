// Mobile ad-hoc network scenario: the workload the paper's introduction
// motivates.  Nodes move through the unit square (random waypoint), the
// communication graph is the induced geometric graph, a real clustering
// algorithm maintains the hierarchy round to round (measuring n_r and θ
// instead of assuming them), and Algorithm 2 is compared against KLO
// full-broadcast token forwarding on the *same* mobility trace.
//
// Unlike the generated (T,L)-HiNet traces, nothing here guarantees the
// model's stability properties — this example shows how the algorithms
// behave on "organic" dynamics, and reports delivery honestly.
//
//   ./examples/mobile_adhoc [--nodes=N] [--radius=R] [--k=K] [--seed=S]
#include <iostream>
#include <stdexcept>

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "cluster/maintenance.hpp"
#include "cluster/metrics.hpp"
#include "core/alg2.hpp"
#include "graph/interval.hpp"
#include "graph/mobility.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  MobilityConfig mob;
  mob.nodes = args.get_uint("nodes", 50, "network size");
  mob.radius = args.get_double("radius", 0.35, "communication radius");
  mob.min_speed = args.get_double("min-speed", 0.01, "min speed per round");
  mob.max_speed = args.get_double("max-speed", 0.04, "max speed per round");
  mob.seed = args.get_uint("seed", 3, "seed");
  const std::string model = args.get_string(
      "model", "waypoint", "mobility model: waypoint|walk|manhattan");
  if (model == "walk") {
    mob.model = MobilityModel::kRandomWalk;
  } else if (model == "manhattan") {
    mob.model = MobilityModel::kManhattan;
    mob.streets = args.get_uint("streets", 5, "Manhattan streets per axis");
  } else if (model != "waypoint") {
    std::cerr << "error: unknown mobility model '" << model << "'\n";
    return 2;
  }
  const auto k = args.get_uint("k", 5, "tokens to disseminate");
  if (args.help_requested()) {
    std::cout << args.usage("mobile_adhoc: dissemination under mobility");
    return 0;
  }
  mob.rounds = mob.nodes;  // Theorem 2 horizon: n-1 rounds (+1 slack)

  std::cout << "mobile ad-hoc network example\n"
            << "=============================\n\n";
  std::cout << "Simulating " << mob.nodes << " nodes, radius " << mob.radius
            << ", " << model << " mobility, " << mob.rounds << " rounds.\n";

  MobilityTrace trace(mob);
  const std::size_t usable = mob.rounds;
  const bool connected = is_one_interval_connected(trace.network(), usable);
  std::cout << "Trace is 1-interval connected: " << (connected ? "yes" : "no")
            << " (Theorem 2 assumes yes; delivery is best-effort otherwise)\n";

  // Maintain a real hierarchy over the mobility trace.
  MaintainedHierarchy mh = maintain_over(trace.network(), usable);
  const HierarchyMetrics hm = measure_hierarchy(mh.hierarchy, usable);
  std::cout << "\nMaintained hierarchy (lowest-ID + least-cluster-change):\n"
            << "  mean heads / round: " << hm.mean_heads
            << "   max heads (theta): " << hm.max_heads << "\n"
            << "  mean members / round: " << hm.mean_members << "\n"
            << "  re-affiliations: " << mh.stats.reaffiliations
            << " (mean per node " << mh.stats.mean_reaffiliations() << ")\n"
            << "  head promotions/abdications: " << mh.stats.head_promotions
            << "/" << mh.stats.head_abdications << "\n\n";

  Rng assign_rng(mob.seed ^ 0x5555ULL);
  const auto init =
      assign_tokens(mob.nodes, k, AssignmentMode::kDistinctRandom, assign_rng);

  // Algorithm 2 on the maintained hierarchy.
  Alg2Params a2;
  a2.k = k;
  a2.rounds = usable;
  Engine hinet_engine(trace.network(), &mh.hierarchy,
                      make_alg2_processes(init, a2));
  const SimMetrics hinet_m = hinet_engine.run(
      {.max_rounds = usable, .stop_when_complete = false});

  // KLO token forwarding on the very same trace, hierarchy ignored.
  KloFloodParams kf;
  kf.k = k;
  kf.rounds = usable;
  Engine klo_engine(trace.network(), nullptr,
                    make_klo_flood_processes(init, kf));
  const SimMetrics klo_m =
      klo_engine.run({.max_rounds = usable, .stop_when_complete = false});

  TextTable t({"algorithm", "delivered", "rounds", "packets", "tokens sent"});
  auto row = [&](const char* name, const SimMetrics& m) {
    t.add(name, m.all_delivered ? "yes" : "no",
          m.all_delivered ? std::to_string(m.rounds_to_completion) : "-",
          m.packets_sent, m.tokens_sent);
  };
  row("Algorithm 2 ((1,L)-HiNet)", hinet_m);
  row("KLO token forwarding [7]", klo_m);
  std::cout << t;

  if (hinet_m.all_delivered && klo_m.all_delivered) {
    const double saving = 1.0 - static_cast<double>(hinet_m.tokens_sent) /
                                    static_cast<double>(klo_m.tokens_sent);
    std::cout << "\nCommunication saving vs KLO: " << saving * 100.0
              << "%  (paper claims up to ~50% on its example)\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  std::cerr << "usage error: " << e.what() << '\n';
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
