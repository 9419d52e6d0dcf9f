// Validation figure V1: communication and time cost versus network size
// n0, for all four Table 2 rows — measured from simulation plus the
// analytic model evaluated at measured dynamics (θ, n_m, n_r).  The
// paper's claim to validate: the HiNet curves stay well below the KLO [7]
// curves in communication across the whole range, with similar time.
#include "common.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 3, "seeds per point");
  const auto seed = args.get_uint("seed", 1, "base seed");
  const auto max_n = args.get_uint("max-n", 160, "largest network size");
  const std::string csv_path =
      args.get_string("csv", "", "write CSV to this path (empty = skip)");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "Sweep V1 — cost vs n0", [&] {
    std::cout << "=== V1: communication & time vs n0 (k=6, alpha=2, L=2, "
                 "heads=n0/8) ===\n\n";
    std::vector<std::string> header{"n0",          "model",
                                    "sched_rounds", "rounds_meas",
                                    "comm_meas",   "comm_analytic",
                                    "delivery"};
    std::unique_ptr<CsvWriter> csv;
    if (csv_path.empty()) {
      csv = std::make_unique<CsvWriter>(header);
    } else {
      csv = std::make_unique<CsvWriter>(csv_path, header);
    }

    TextTable t({"n0", "model", "sched", "rounds", "comm meas",
                 "comm analytic", "delivery%"});
    for (std::size_t n = 40; n <= max_n; n += 40) {
      ScenarioConfig cfg;
      cfg.nodes = n;
      cfg.heads = std::max<std::size_t>(2, n / 8);
      cfg.k = 6;
      cfg.alpha = 2;
      cfg.hop_l = 2;
      cfg.reaffiliation_prob = 0.1;
      for (Scenario s : {Scenario::kKloInterval, Scenario::kHiNetInterval,
                         Scenario::kKloOne, Scenario::kHiNetOne}) {
        const bench::MeasuredRow row =
            bench::measure_scenario(s, cfg, reps, seed, jobs);
        const auto [at, ac] = bench::analytic_costs(s, row.analytic);
        (void)at;
        t.add(n, row.model, row.time_sched, row.time_mean, row.comm_mean, ac,
              row.delivery * 100.0);
        csv->row(n, row.model, row.time_sched, row.time_mean, row.comm_mean,
                 ac, row.delivery);
      }
    }
    std::cout << t;
    if (!csv_path.empty()) {
      std::cout << "\nCSV written to " << csv_path << '\n';
    }
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
