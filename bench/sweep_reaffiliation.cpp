// Validation figure V3: communication cost versus member churn.  The
// HiNet member term is n_m * n_r * k, so its advantage erodes as
// re-affiliation grows — this sweep locates where, which the paper only
// gestures at ("n_r should be much less than n_0").
#include "common.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 3, "seeds per point");
  const auto seed = args.get_uint("seed", 1, "base seed");
  const std::string csv_path =
      args.get_string("csv", "", "write CSV to this path (empty = skip)");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "Sweep V3 — communication vs churn", [&] {
    std::cout << "=== V3: communication vs re-affiliation churn (n0=64, "
                 "heads=8, k=6, alpha=2, L=2) ===\n\n";
    std::vector<std::string> header{"reaff_prob", "model", "measured_nr",
                                    "comm_meas", "comm_analytic", "delivery"};
    std::unique_ptr<CsvWriter> csv;
    if (csv_path.empty()) {
      csv = std::make_unique<CsvWriter>(header);
    } else {
      csv = std::make_unique<CsvWriter>(csv_path, header);
    }

    TextTable t({"reaff p", "model", "measured n_r", "comm meas",
                 "comm analytic", "delivery%"});
    for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
      ScenarioConfig cfg;
      cfg.nodes = 64;
      cfg.heads = 8;
      cfg.k = 6;
      cfg.alpha = 2;
      cfg.hop_l = 2;
      cfg.reaffiliation_prob = p;
      for (Scenario s : {Scenario::kHiNetInterval, Scenario::kHiNetOne,
                         Scenario::kHiNetIntervalStable}) {
        const bench::MeasuredRow row =
            bench::measure_scenario(s, cfg, reps, seed, jobs);
        const auto [at, ac] = bench::analytic_costs(s, row.analytic);
        (void)at;
        t.add(p, row.model, static_cast<long long>(row.analytic.n_r),
              row.comm_mean, ac, row.delivery * 100.0);
        csv->row(p, row.model, row.analytic.n_r, row.comm_mean, ac,
                 row.delivery);
      }
    }
    std::cout << t;
    std::cout << "\nReference (churn-independent) KLO costs at these "
                 "parameters:\n";
    ScenarioConfig ref;
    ref.nodes = 64;
    ref.heads = 8;
    ref.k = 6;
    ref.alpha = 2;
    ref.hop_l = 2;
    for (Scenario s : {Scenario::kKloInterval, Scenario::kKloOne}) {
      const bench::MeasuredRow row =
          bench::measure_scenario(s, ref, reps, seed, jobs);
      std::cout << "  " << row.model << ": measured " << row.comm_mean
                << " tokens\n";
    }
    if (!csv_path.empty()) std::cout << "\nCSV written to " << csv_path << '\n';
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
