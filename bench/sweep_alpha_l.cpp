// Validation figure V4: time and communication versus the schedule knobs
// α and L.  Larger α shortens the schedule (fewer phases) at the price of
// longer phases; larger L stretches the backbone.  Includes L in {1..4},
// covering the paper's future-work multi-hop-cluster case (L between
// adjacent heads beyond the 1-hop bound of 3).
#include "common.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 3, "seeds per point");
  const auto seed = args.get_uint("seed", 1, "base seed");
  const std::string csv_path =
      args.get_string("csv", "", "write CSV to this path (empty = skip)");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "Sweep V4 — cost vs alpha and L", [&] {
    std::cout << "=== V4: Algorithm 1 cost vs alpha and L (n0=72, heads=8, "
                 "k=6) ===\n\n";
    std::vector<std::string> header{"alpha",       "L",
                                    "sched_rounds", "rounds_meas",
                                    "comm_meas",   "comm_analytic",
                                    "delivery"};
    std::unique_ptr<CsvWriter> csv;
    if (csv_path.empty()) {
      csv = std::make_unique<CsvWriter>(header);
    } else {
      csv = std::make_unique<CsvWriter>(csv_path, header);
    }

    TextTable t({"alpha", "L", "sched", "rounds meas", "comm meas",
                 "comm analytic", "delivery%"});
    for (std::size_t alpha : {1u, 2u, 4u}) {
      for (int l : {1, 2, 3, 4}) {
        ScenarioConfig cfg;
        cfg.nodes = 72;
        cfg.heads = 8;
        cfg.k = 6;
        cfg.alpha = alpha;
        cfg.hop_l = l;
        cfg.reaffiliation_prob = 0.1;
        const bench::MeasuredRow row = bench::measure_scenario(
            Scenario::kHiNetInterval, cfg, reps, seed, jobs);
        const auto [at, ac] = bench::analytic_costs(Scenario::kHiNetInterval,
                                                    row.analytic);
        (void)at;
        t.add(alpha, l, row.time_sched, row.time_mean, row.comm_mean, ac,
              row.delivery * 100.0);
        csv->row(alpha, l, row.time_sched, row.time_mean, row.comm_mean, ac,
                 row.delivery);
      }
    }
    std::cout << t;
    if (!csv_path.empty()) std::cout << "\nCSV written to " << csv_path << '\n';
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
