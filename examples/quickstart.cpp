// Quickstart: generate a (T, L)-HiNet trace, run Algorithm 1 on it with
// the Theorem 1 schedule, verify the model properties, and print the
// costs next to the analytic Table 2 prediction.
//
//   ./examples/quickstart [--nodes=N] [--heads=H] [--k=K] [--seed=S]
#include <iostream>
#include <stdexcept>

#include "analysis/scenarios.hpp"
#include "core/hinet_generator.hpp"
#include "core/hinet_properties.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  ScenarioConfig cfg;
  cfg.nodes = args.get_uint("nodes", 60, "network size n0");
  cfg.heads = args.get_uint("heads", 8, "cluster-head budget (theta)");
  cfg.k = args.get_uint("k", 6, "tokens to spread");
  cfg.alpha = args.get_uint("alpha", 2, "coefficient alpha");
  cfg.hop_l = args.get_int32("l", 2, "L-hop cluster-head connectivity");
  const auto seed = args.get_uint("seed", 7, "trace seed");
  if (args.help_requested()) {
    std::cout << args.usage("quickstart: Algorithm 1 on a (T,L)-HiNet trace");
    return 0;
  }

  std::cout << "hinet quickstart\n================\n\n";
  std::cout << "1. Generating a (k+aL, L)-HiNet trace: n0=" << cfg.nodes
            << ", heads=" << cfg.heads << ", k=" << cfg.k
            << ", alpha=" << cfg.alpha << ", L=" << cfg.hop_l << "\n";

  // Generate the trace ourselves so it can be inspected and
  // property-checked before being handed over to the simulation.
  HiNetTrace trace =
      make_hinet_trace(scenario_generator(Scenario::kHiNetInterval, cfg, seed));
  std::cout << "   trace dynamics: theta=" << trace.stats.theta
            << "  n_m=" << trace.stats.mean_members
            << "  n_r=" << trace.stats.mean_reaffiliations << "\n\n";

  std::cout << "2. Checking the trace against Definition 8 ((T,L)-HiNet)\n";
  {
    ScenarioSchedule sched;
    (void)scenario_generator(Scenario::kHiNetInterval, cfg, seed, &sched);
    const PropertyResult ok =
        check_hinet(trace.ctvg, trace.ctvg.round_count(), sched.phase_length,
                    cfg.hop_l);
    std::cout << "   " << (ok ? "model properties hold" : ok.violation)
              << "\n\n";
  }

  std::cout << "3. Running Algorithm 1 (k-token dissemination)\n";
  ScenarioRun run = make_scenario_from_trace(Scenario::kHiNetInterval, cfg,
                                             std::move(trace), seed);
  std::cout << "   scheduled: " << run.scheduled_rounds << " rounds ("
            << alg1_phase_count(run.analytic) << " phases of "
            << alg1_min_phase_length(run.analytic) << " rounds)\n";
  const SimMetrics m = run_simulation(std::move(run.spec));
  std::cout << "   " << m.to_string() << "\n\n";

  std::cout << "4. Comparing with the analytic cost model (Table 2 row)\n";
  TextTable tbl({"quantity", "measured", "analytic bound"});
  tbl.add("time (rounds)",
          m.all_delivered ? std::to_string(m.rounds_to_completion) : "never",
          std::to_string(time_hinet_interval(run.analytic)));
  CostParams bound = run.analytic;
  bound.n_r += 1;  // initial member uploads (see EXPERIMENTS.md)
  tbl.add("communication (tokens)", std::to_string(m.tokens_sent),
          std::to_string(comm_hinet_interval(bound)));
  std::cout << tbl;

  std::cout << "\nDone: all " << cfg.k << " tokens reached all " << cfg.nodes
            << " nodes — " << (m.all_delivered ? "success" : "FAILURE")
            << ".\n";
  return m.all_delivered ? 0 : 1;
} catch (const std::invalid_argument& e) {
  std::cerr << "usage error: " << e.what() << '\n';
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
