// Validation figure V7: energy accounting (the WSN motivation made
// concrete).  Total network energy and the most-loaded node's energy for
// each algorithm under a linear radio model — the hierarchy trades lower
// totals for a hotter backbone, which this bench quantifies.
#include "common.hpp"

#include "sim/engine.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 3, "seeds per cell");
  const double tx = args.get_double("tx", 1.0, "energy per transmitted token");
  const double rx = args.get_double("rx", 0.5, "energy per received token");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "V7 — energy accounting", [&] {
    std::cout << "=== V7: radio energy per algorithm (n0=64, heads=8, k=6, "
                 "alpha=2, L=2; tx=" << tx << ", rx=" << rx << ") ===\n\n";
    const EnergyModel model{tx, rx, 0.0};
    ScenarioConfig cfg;
    cfg.nodes = 64;
    cfg.heads = 8;
    cfg.k = 6;
    cfg.alpha = 2;
    cfg.hop_l = 2;
    cfg.reaffiliation_prob = 0.1;

    TextTable t({"scenario", "total energy", "mean node", "max node",
                 "max/mean", "delivery%"});
    for (Scenario s : {Scenario::kKloInterval, Scenario::kHiNetInterval,
                       Scenario::kKloOne, Scenario::kHiNetOne}) {
      double total_sum = 0.0, max_sum = 0.0;
      std::size_t delivered = 0;
      const auto runs =
          run_replicates(scenario_factory(s, cfg), reps, 0, jobs);
      for (const ReplicateResult& r : runs) {
        total_sum += total_energy(r.metrics, model);
        max_sum += max_node_energy(r.metrics, model);
        if (r.metrics.all_delivered) ++delivered;
      }
      const double total = total_sum / static_cast<double>(reps);
      const double mean_node = total / static_cast<double>(cfg.nodes);
      const double max_node = max_sum / static_cast<double>(reps);
      t.add(scenario_name(s), total, mean_node, max_node,
            mean_node > 0.0 ? max_node / mean_node : 0.0,
            static_cast<double>(delivered) / static_cast<double>(reps) *
                100.0);
    }
    std::cout << t;
    std::cout << "\nReading: the hierarchy lowers both the network total "
                 "(members stay silent) and\nthe per-node peak — KLO makes "
                 "every node pay the full broadcast bill, so even\nits "
                 "busiest node outspends a cluster head.  The max/mean "
                 "column shows load\nconcentration: the backbone carries a "
                 "similar *relative* share in both designs.\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
