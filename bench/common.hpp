// Shared helpers for the benchmark/reproduction binaries.
#pragma once

#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "analysis/experiment.hpp"
#include "analysis/scenarios.hpp"
#include "core/cost_model.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace hinet::bench {

/// Peak resident set size of this process in bytes, 0 where unsupported.
/// Monotone over the process lifetime (the high-water mark): order bench
/// points smallest-first so each point's reading is attributable to it.
inline std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Current resident set size in bytes (Linux /proc/self/statm), 0 where
/// unsupported.  Unlike the peak this goes back down when a large trace is
/// freed, so sampling it while a run's spec is still alive attributes the
/// reading to that run's working set.
inline std::size_t current_rss_bytes() {
#if defined(__linux__)
  std::ifstream f("/proc/self/statm");
  std::size_t pages_total = 0;
  std::size_t pages_resident = 0;
  if (!(f >> pages_total >> pages_resident)) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return pages_resident * static_cast<std::size_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

/// The host CPU's model name (Linux /proc/cpuinfo), "unknown" elsewhere.
inline std::string cpu_model() {
  const std::string key = "model name";
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(" \t:", key.size());
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

/// One measured row: a scenario run `reps` times with derived seeds.
struct MeasuredRow {
  std::string model;
  double time_mean = 0.0;       ///< measured rounds to completion
  std::size_t time_sched = 0;   ///< scheduled rounds (the analytic "time")
  double comm_mean = 0.0;       ///< measured tokens sent
  double delivery = 0.0;        ///< fraction of runs that delivered
  CostParams analytic;          ///< with measured θ/n_m/n_r
};

inline MeasuredRow measure_scenario(Scenario s, const ScenarioConfig& cfg,
                                    std::size_t reps, std::uint64_t seed,
                                    std::size_t jobs = 1) {
  MeasuredRow row;
  row.model = scenario_name(s);
  const ScenarioRun probe = make_scenario(s, cfg, seed);
  row.time_sched = probe.scheduled_rounds;
  row.analytic = probe.analytic;
  const AggregateResult agg = run_experiment(
      scenario_factory(s, cfg),
      ExperimentOptions{reps, seed, ExecutionPolicy::threaded(jobs)});
  row.time_mean = agg.rounds_to_completion.mean;
  row.comm_mean = agg.tokens_sent.mean;
  row.delivery = agg.delivery_rate;
  return row;
}

/// Analytic (time, comm) for a scenario at given parameters.
inline std::pair<std::size_t, std::size_t> analytic_costs(Scenario s,
                                                          const CostParams& p) {
  switch (s) {
    case Scenario::kKloInterval:
      return {time_klo_interval(p), comm_klo_interval(p)};
    case Scenario::kHiNetInterval:
    case Scenario::kHiNetIntervalStable:
      return {time_hinet_interval(p), comm_hinet_interval(p)};
    case Scenario::kKloOne:
      return {time_klo_one(p), comm_klo_one(p)};
    case Scenario::kHiNetOne:
      return {time_hinet_one(p), comm_hinet_one(p)};
  }
  return {0, 0};
}

/// A malformed or out-of-range flag value, which the getters report with
/// the flag's name: a usage error, exit 2 like an unknown option.  Every
/// bench's main catches std::invalid_argument into this.
inline int usage_error(const std::invalid_argument& e) {
  std::cerr << "usage error: " << e.what() << "\n";
  return 2;
}

/// Prints --help or rejects an unknown option, else runs the bench body.
/// A flag value outside the model reaches the library's preconditions:
/// like hinetd and sweep_runner, that is a usage error (exit 2) showing
/// the broken rule alone.  Any other failure is exit 1.
inline int run_main(CliArgs& args, const std::string& summary,
                    const std::function<void()>& body) {
  if (args.help_requested()) {
    std::cout << args.usage(summary);
    return 0;
  }
  const auto unknown = args.unknown_options();
  if (!unknown.empty()) {
    std::cerr << "unknown option: --" << unknown.front() << "\n";
    return 2;
  }
  try {
    body();
  } catch (const std::invalid_argument& e) {
    return usage_error(e);
  } catch (const PreconditionError& e) {
    std::cerr << "usage error: " << e.rule() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace hinet::bench
