// Reproduces Table 3: the paper's numeric example (n0=100, θ=30, n_m=40,
// n_r=3/10, k=8, α=5, L=2), and extends it with *measured* columns from
// running the actual algorithms on generated traces with matching
// parameters — the validation the paper itself never ran.
#include "common.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 5, "repetitions per scenario");
  const auto seed = args.get_uint("seed", 1, "base seed");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "Table 3 — numeric example + measured", [&] {
    std::cout << "=== Table 3: Numerical Results of Performance Analysis "
                 "===\n\n";
    TextTable t({"Models of Dynamic Networks", "Time (rounds)",
                 "Comm (tokens)", "Paper prints"});
    const auto rows = evaluate_table3();
    const char* paper_values[] = {"180 / 8000", "126 / 4320", "99 / 79200",
                                  "99 / 51680 (*)"};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      t.add(rows[i].model, rows[i].time, rows[i].comm, paper_values[i]);
    }
    std::cout << t;
    std::cout << "(*) The paper prints 51680, but its own formula "
                 "(n0-1)(n0-nm)k + nm*nr*k\n    with n0=100, nm=40, nr=10, "
                 "k=8 gives 99*60*8 + 40*10*8 = 50720.\n    We reproduce "
                 "the formula; see EXPERIMENTS.md.\n\n";

    std::cout << "--- Measured counterpart (simulation, " << reps
              << " seeds each) ---\n";
    std::cout << "Traces: generated (T,L)-HiNet / (1,L)-HiNet with n0=100, "
                 "heads=30, k=8, alpha=5, L=2;\nKLO baselines run on the "
                 "same trace family with the hierarchy ignored.\n\n";

    ScenarioConfig interval_cfg;
    interval_cfg.nodes = 100;
    interval_cfg.heads = 30;
    interval_cfg.k = 8;
    interval_cfg.alpha = 5;
    interval_cfg.hop_l = 2;
    // Tuned so measured n_r lands near the paper's assumption (3).
    interval_cfg.reaffiliation_prob = 0.5;

    ScenarioConfig one_cfg = interval_cfg;
    // (1,L): boundaries are per-round; the paper assumes higher churn
    // (n_r = 10) in this setting.
    one_cfg.reaffiliation_prob = 0.1;

    TextTable m({"Scenario", "Sched. rounds", "Rounds (meas.)",
                 "Comm (meas.)", "Comm (analytic@measured)", "Delivery"});
    const struct {
      Scenario s;
      const ScenarioConfig* cfg;
    } plan[] = {
        {Scenario::kKloInterval, &interval_cfg},
        {Scenario::kHiNetInterval, &interval_cfg},
        {Scenario::kKloOne, &one_cfg},
        {Scenario::kHiNetOne, &one_cfg},
    };
    for (const auto& item : plan) {
      const bench::MeasuredRow row =
          bench::measure_scenario(item.s, *item.cfg, reps, seed, jobs);
      const auto [at, ac] = bench::analytic_costs(item.s, row.analytic);
      (void)at;
      m.add(row.model, row.time_sched, row.time_mean, row.comm_mean, ac,
            row.delivery * 100.0);
    }
    std::cout << m;
    std::cout << "\nShape check (paper Section V): the HiNet rows must beat "
                 "the [7] rows on\ncommunication at similar-or-smaller "
                 "time.\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
