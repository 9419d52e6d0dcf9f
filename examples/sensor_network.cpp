// Wireless sensor network scenario: stationary sensors with an
// infrastructure backbone — the ∞-interval stable head set case of
// Remark 1.  Sensor readings (tokens) must reach every node; we compare
// plain Algorithm 1 against the Remark 1 optimisation under member churn
// (sensors re-associating between backbone heads as link quality shifts).
//
//   ./examples/sensor_network [--sensors=N] [--heads=H] [--readings=K]
#include <iostream>
#include <stdexcept>

#include "analysis/assignment.hpp"
#include "analysis/scenarios.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  ScenarioConfig cfg;
  cfg.nodes = args.get_uint("sensors", 80, "total sensor nodes");
  cfg.heads = args.get_uint("heads", 10, "backbone (mains-powered) heads");
  cfg.k = args.get_uint("readings", 8, "sensor readings to disseminate");
  cfg.alpha = args.get_uint("alpha", 2, "alpha");
  cfg.hop_l = args.get_int32("l", 2, "backbone hop length L");
  cfg.reaffiliation_prob =
      args.get_double("churn", 0.3, "sensor re-association probability");
  const auto seed = args.get_uint("seed", 5, "seed");
  const auto reps = args.get_uint("reps", 5, "repetitions");
  const std::size_t jobs = args.get_jobs();
  if (args.help_requested()) {
    std::cout << args.usage(
        "sensor_network: Remark 1 (stable backbone) vs plain Algorithm 1");
    return 0;
  }

  std::cout << "sensor network example (stable backbone, Remark 1)\n"
            << "==================================================\n\n"
            << cfg.nodes << " sensors, " << cfg.heads
            << " mains-powered cluster heads, " << cfg.k
            << " readings, re-association probability "
            << cfg.reaffiliation_prob << " per phase.\n\n";

  // Both variants run on ∞-stable-head traces (the Remark 1 premise);
  // only the member upload policy differs.
  auto stable_cfg = cfg;
  TextTable t({"variant", "delivery%", "rounds (mean)", "tokens sent (mean)"});
  double plain_tokens = 0.0, stable_tokens = 0.0;
  {
    // Plain Algorithm 1 but on stable-heads traces: reuse the stable
    // scenario's generator by running the stable scenario with the
    // optimisation disabled — i.e. the kHiNetInterval scenario with
    // head_churn left at zero (the generator default), which already
    // yields a constant head set.
    const AggregateResult agg = run_experiment(
        scenario_factory(Scenario::kHiNetInterval, stable_cfg),
        ExperimentOptions{reps, seed, ExecutionPolicy::threaded(jobs)});
    plain_tokens = agg.tokens_sent.mean;
    t.add("Algorithm 1 (members re-upload on churn)",
          agg.delivery_rate * 100.0, agg.rounds_to_completion.mean,
          agg.tokens_sent.mean);
  }
  {
    const AggregateResult agg = run_experiment(
        scenario_factory(Scenario::kHiNetIntervalStable, stable_cfg),
        ExperimentOptions{reps, seed, ExecutionPolicy::threaded(jobs)});
    stable_tokens = agg.tokens_sent.mean;
    t.add("Remark 1 (upload once, never re-send)", agg.delivery_rate * 100.0,
          agg.rounds_to_completion.mean, agg.tokens_sent.mean);
  }
  std::cout << t;
  if (plain_tokens > 0.0) {
    std::cout << "\nRemark 1 member-upload saving: "
              << (1.0 - stable_tokens / plain_tokens) * 100.0 << "%\n";
  }
  std::cout << "\nInterpretation: with an infrastructure backbone the heads "
               "never change, so\nre-associating sensors need not re-upload "
               "readings the backbone already has\n(Remark 1) — the saving "
               "grows with churn.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  std::cerr << "usage error: " << e.what() << '\n';
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
