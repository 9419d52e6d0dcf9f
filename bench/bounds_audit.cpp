// Validation experiment V5: theorem-bound audit.  For every scenario and
// seed, the measured run must respect the paper's guarantees:
//   - delivery completes within the scheduled rounds (Theorems 1 and 2);
//   - measured communication does not exceed the Table 2 worst case
//     (evaluated at measured θ, n_m, n_r; member initial uploads counted
//     as one extra n_r unit, see EXPERIMENTS.md).
#include "common.hpp"

#include <map>
#include <mutex>

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto seeds = args.get_uint("seeds", 6, "seeds to audit");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "V5 — theorem bound audit", [&] {
    std::cout << "=== V5: measured behaviour vs proved bounds ===\n\n";
    TextTable t({"scenario", "seed", "rounds<=sched", "comm<=analytic",
                 "delivered"});
    std::size_t failures = 0;
    for (Scenario s : {Scenario::kKloInterval, Scenario::kHiNetInterval,
                       Scenario::kHiNetIntervalStable, Scenario::kKloOne,
                       Scenario::kHiNetOne}) {
      ScenarioConfig cfg;
      cfg.nodes = 60;
      cfg.heads = 8;
      cfg.k = 6;
      cfg.alpha = 2;
      cfg.hop_l = 2;
      cfg.reaffiliation_prob = 0.15;

      // The per-seed analytic params (measured θ, n_m, n_r) are a
      // by-product of spec construction; collect them through a locked
      // side table so the factory stays safe under concurrent invocation.
      std::mutex analytics_mutex;
      std::map<std::uint64_t, ScenarioRun> probes;
      const SpecFactory factory = [&](std::uint64_t seed) {
        ScenarioRun sr = make_scenario(s, cfg, seed);
        SimulationSpec spec = std::move(sr.spec);
        std::lock_guard<std::mutex> lock(analytics_mutex);
        probes.emplace(seed, std::move(sr));
        return spec;
      };
      const auto runs = run_replicates(factory, seeds, 0, jobs);

      for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        const ScenarioRun& sr = probes.at(replicate_seed(0, seed));
        CostParams bound = sr.analytic;
        bound.n_r += 1;  // member initial upload allowance
        const std::size_t sched = sr.scheduled_rounds;
        const SimMetrics& m = runs[seed].metrics;
        const auto [at, ac] = bench::analytic_costs(s, bound);
        (void)at;
        const bool time_ok =
            m.all_delivered && m.rounds_to_completion <= sched;
        const bool comm_ok = m.tokens_sent <= ac;
        if (!time_ok || !comm_ok || !m.all_delivered) ++failures;
        auto yn = [](bool b) { return b ? "yes" : "NO"; };
        t.add(scenario_name(s), seed, yn(time_ok), yn(comm_ok),
              yn(m.all_delivered));
      }
    }
    std::cout << t;
    std::cout << "\nAudit failures: " << failures << '\n';
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
