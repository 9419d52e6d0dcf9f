// Validation figure V2: communication cost versus token count k.  Both
// models scale linearly in k analytically; measured curves must preserve
// the HiNet-vs-KLO gap at every k.
#include "common.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 3, "seeds per point");
  const auto seed = args.get_uint("seed", 1, "base seed");
  const std::string csv_path =
      args.get_string("csv", "", "write CSV to this path (empty = skip)");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "Sweep V2 — communication vs k", [&] {
    std::cout << "=== V2: communication vs k (n0=64, heads=8, alpha=2, L=2) "
                 "===\n\n";
    std::vector<std::string> header{"k", "model", "comm_meas", "comm_analytic",
                                    "rounds_meas", "delivery"};
    std::unique_ptr<CsvWriter> csv;
    if (csv_path.empty()) {
      csv = std::make_unique<CsvWriter>(header);
    } else {
      csv = std::make_unique<CsvWriter>(csv_path, header);
    }

    TextTable t({"k", "model", "comm meas", "comm analytic", "rounds",
                 "delivery%"});
    for (std::size_t k : {2u, 4u, 8u, 16u, 32u}) {
      ScenarioConfig cfg;
      cfg.nodes = 64;
      cfg.heads = 8;
      cfg.k = k;
      cfg.alpha = 2;
      cfg.hop_l = 2;
      cfg.reaffiliation_prob = 0.1;
      for (Scenario s : {Scenario::kKloInterval, Scenario::kHiNetInterval,
                         Scenario::kKloOne, Scenario::kHiNetOne}) {
        const bench::MeasuredRow row =
            bench::measure_scenario(s, cfg, reps, seed, jobs);
        const auto [at, ac] = bench::analytic_costs(s, row.analytic);
        (void)at;
        t.add(k, row.model, row.comm_mean, ac, row.time_mean,
              row.delivery * 100.0);
        csv->row(k, row.model, row.comm_mean, ac, row.time_mean,
                 row.delivery);
      }
    }
    std::cout << t;
    if (!csv_path.empty()) std::cout << "\nCSV written to " << csv_path << '\n';
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
