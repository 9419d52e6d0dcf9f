// One-command reproduction report.
//
// Runs the complete paper reproduction — Table 2/3 analytics, the measured
// simulation counterparts, the theorem-bound audit, and the headline-claim
// checks — and emits a self-contained markdown report (stdout, or --out).
// This is the artifact a reviewer would ask for.
#include "common.hpp"

#include <fstream>

#include "core/hinet_generator.hpp"
#include "core/hinet_properties.hpp"

using namespace hinet;

namespace {

void md_table(std::ostream& os, const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows) {
  auto line = [&](const std::vector<std::string>& cells) {
    os << "| ";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << " | ";
      os << cells[i];
    }
    os << " |\n";
  };
  line(header);
  std::vector<std::string> rule(header.size(), "---");
  line(rule);
  for (const auto& r : rows) line(r);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << v;
  std::string s = os.str();
  if (s.size() > 2 && s.substr(s.size() - 2) == ".0") {
    s.resize(s.size() - 2);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 5, "seeds per scenario");
  const auto seed = args.get_uint("seed", 1, "base seed");
  const std::string out_path =
      args.get_string("out", "", "write report to this path (default stdout)");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "full reproduction report", [&] {
    std::ostringstream md;
    md << "# Reproduction report — Efficient Information Dissemination in "
          "Dynamic Networks (ICPP 2013)\n\n";
    md << "Deterministic run: base seed " << seed << ", " << reps
       << " repetitions per measured cell.\n\n";

    std::size_t checks_passed = 0, checks_total = 0;
    auto check = [&](bool ok) {
      ++checks_total;
      if (ok) ++checks_passed;
      return ok ? std::string("PASS") : std::string("**FAIL**");
    };

    // ---- Table 3 analytic ------------------------------------------------
    md << "## Table 3 (analytic, exact reproduction)\n\n";
    {
      const auto rows = evaluate_table3();
      const char* paper_time[] = {"180", "126", "99", "99"};
      const char* paper_comm[] = {"8000", "4320", "79200", "51680"};
      const std::size_t expect_comm[] = {8000, 4320, 79200, 50720};
      const std::size_t expect_time[] = {180, 126, 99, 99};
      std::vector<std::vector<std::string>> cells;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const bool time_ok = rows[i].time == expect_time[i];
        const bool comm_ok = rows[i].comm == expect_comm[i];
        cells.push_back({rows[i].model, paper_time[i],
                         std::to_string(rows[i].time), paper_comm[i],
                         std::to_string(rows[i].comm),
                         check(time_ok && comm_ok)});
      }
      md_table(md,
               {"model", "paper time", "our time", "paper comm", "our comm",
                "status"},
               cells);
      md << "\nNote: the paper's (1,L)-HiNet communication entry 51680 is "
            "an arithmetic slip;\nits own formula gives 50720 "
            "(see EXPERIMENTS.md), which we reproduce.\n\n";
    }

    // ---- Measured counterpart -------------------------------------------
    md << "## Measured simulation counterpart (Table 3 parameters)\n\n";
    {
      ScenarioConfig interval_cfg;
      interval_cfg.nodes = 100;
      interval_cfg.heads = 30;
      interval_cfg.k = 8;
      interval_cfg.alpha = 5;
      interval_cfg.hop_l = 2;
      interval_cfg.reaffiliation_prob = 0.5;
      ScenarioConfig one_cfg = interval_cfg;
      one_cfg.reaffiliation_prob = 0.1;

      const struct {
        Scenario s;
        const ScenarioConfig* cfg;
      } plan[] = {
          {Scenario::kKloInterval, &interval_cfg},
          {Scenario::kHiNetInterval, &interval_cfg},
          {Scenario::kKloOne, &one_cfg},
          {Scenario::kHiNetOne, &one_cfg},
      };
      std::vector<bench::MeasuredRow> measured;
      std::vector<std::vector<std::string>> cells;
      for (const auto& item : plan) {
        bench::MeasuredRow row =
            bench::measure_scenario(item.s, *item.cfg, reps, seed, jobs);
        const auto [at, ac] = bench::analytic_costs(item.s, row.analytic);
        (void)at;
        cells.push_back({row.model, std::to_string(row.time_sched),
                         fmt(row.time_mean), fmt(row.comm_mean),
                         std::to_string(ac),
                         check(row.delivery == 1.0 &&
                               row.comm_mean <= static_cast<double>(ac) * 1.2)});
        measured.push_back(std::move(row));
      }
      md_table(md,
               {"scenario", "sched rounds", "rounds (meas)", "comm (meas)",
                "comm (analytic@measured)", "status"},
               cells);

      md << "\n### Headline claims (Section V)\n\n";
      std::vector<std::vector<std::string>> claims;
      const double save_i = 1.0 - measured[1].comm_mean / measured[0].comm_mean;
      const double save_1 = 1.0 - measured[3].comm_mean / measured[2].comm_mean;
      claims.push_back(
          {"HiNet saves communication, (k+aL) setting",
           fmt(save_i * 100.0) + "% saved", check(save_i > 0.0)});
      claims.push_back(
          {"HiNet saves communication, (1,L) setting",
           fmt(save_1 * 100.0) + "% saved", check(save_1 > 0.0)});
      claims.push_back({"time similar or smaller, (k+aL) setting",
                        fmt(measured[1].time_mean) + " vs " +
                            fmt(measured[0].time_mean) + " rounds",
                        check(measured[1].time_mean <=
                              1.2 * measured[0].time_mean)});
      claims.push_back({"time similar or smaller, (1,L) setting",
                        fmt(measured[3].time_mean) + " vs " +
                            fmt(measured[2].time_mean) + " rounds",
                        check(measured[3].time_mean <=
                              1.2 * measured[2].time_mean)});
      claims.push_back({"benefit can reach ~50%",
                        fmt(std::max(save_i, save_1) * 100.0) + "% best",
                        check(std::max(save_i, save_1) >= 0.45)});
      md_table(md, {"claim", "measured", "status"}, claims);
    }

    // ---- Theorem audit ----------------------------------------------------
    md << "\n## Theorem audit (delivery within proved schedules)\n\n";
    {
      ScenarioConfig cfg;
      cfg.nodes = 60;
      cfg.heads = 8;
      cfg.k = 6;
      cfg.alpha = 2;
      cfg.hop_l = 2;
      cfg.reaffiliation_prob = 0.15;
      std::vector<std::vector<std::string>> cells;
      for (Scenario s : {Scenario::kKloInterval, Scenario::kHiNetInterval,
                         Scenario::kHiNetIntervalStable, Scenario::kKloOne,
                         Scenario::kHiNetOne}) {
        std::size_t ok_count = 0;
        ScenarioSchedule sched;
        (void)scenario_generator(s, cfg, seed, &sched);
        const auto runs =
            run_replicates(scenario_factory(s, cfg), reps, seed, jobs);
        for (const ReplicateResult& r : runs) {
          if (r.metrics.all_delivered &&
              r.metrics.rounds_to_completion <= sched.rounds()) {
            ++ok_count;
          }
        }
        cells.push_back({scenario_name(s),
                         std::to_string(ok_count) + "/" + std::to_string(reps),
                         check(ok_count == reps)});
      }
      md_table(md, {"scenario", "within schedule", "status"}, cells);
    }

    // ---- Model self-check --------------------------------------------------
    md << "\n## Model self-check (generated traces satisfy Definition 8)\n\n";
    {
      std::size_t ok_count = 0;
      const std::size_t trials = reps;
      for (std::uint64_t sd = 0; sd < trials; ++sd) {
        HiNetConfig gen;
        gen.nodes = 40;
        gen.heads = 6;
        gen.phase_length = 8;
        gen.phases = 4;
        gen.hop_l = 2;
        gen.reaffiliation_prob = 0.2;
        gen.seed = seed + sd;
        HiNetTrace trace = make_hinet_trace(gen);
        if (trace.ctvg.validate().empty() &&
            check_hinet(trace.ctvg, trace.ctvg.round_count(), 8, 2)) {
          ++ok_count;
        }
      }
      md << "Definition 8 holds on " << ok_count << "/" << trials
         << " generated traces: " << check(ok_count == trials) << "\n";
    }

    md << "\n---\n**" << checks_passed << "/" << checks_total
       << " checks passed.**\n";

    if (out_path.empty()) {
      std::cout << md.str();
    } else {
      std::ofstream f(out_path);
      f << md.str();
      std::cout << "report written to " << out_path << " (" << checks_passed
                << "/" << checks_total << " checks passed)\n";
    }
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
