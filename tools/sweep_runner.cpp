// sweep_runner — supervised, journal-backed experiment sweeps from the
// command line.
//
// Runs `--reps` replicates of one evaluation scenario under the
// supervisor (analysis/supervisor.hpp): per-replicate deadlines, retry
// with backoff for transient failures, partial-result salvage, SIGINT
// graceful shutdown, and — with --journal — crash-safe resume: each
// completed replicate is durably recorded, and a killed sweep re-run with
// --resume skips everything already done and aggregates byte-identically
// to an uninterrupted run (verify with the printed stats-digest line).
//
//   sweep_runner --scenario=hinet-interval --nodes=60 --reps=40
//       --journal=sweep.journal --jobs=8
//   # ...SIGKILL mid-flight...
//   sweep_runner --scenario=hinet-interval --nodes=60 --reps=40
//       --journal=sweep.journal --jobs=8 --resume
//
// --abort-after=N is the deterministic crash lever for the kill-and-resume
// CI smoke: the process hard-exits (status 42, no cleanup) right after the
// N-th freshly executed replicate reaches the journal — exactly the state
// a SIGKILL at that moment would leave behind.
//
// --jobs sets the worker-pool width (--jobs=1 runs serially on the main
// thread).  Statistics and the stats-digest are byte-identical at every
// width, so a sweep may resume under a different --jobs than it was
// killed under.
//
// Exit codes and signal handling follow the convention shared with hinetd
// (service/exit_codes.hpp): 0 ok, 1 permanent failure, 2 usage (also a
// spec outside the model, named by its flag before any replicate runs),
// 3 transient/retryable (interrupted — resume with --resume), 4 corrupt
// durable state; SIGINT and SIGTERM both request graceful shutdown.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/journal.hpp"
#include "analysis/scenarios.hpp"
#include "analysis/supervisor.hpp"
#include "service/exit_codes.hpp"
#include "util/cli.hpp"

namespace {

// detlint-allow(banned-time): whole-batch wall time is a bench-style timer
using Clock = std::chrono::steady_clock;

}  // namespace

int main(int argc, char** argv) {
  using namespace hinet;
  try {
    CliArgs args(argc, argv);

    const std::string scenario_arg = args.get_string(
        "scenario", "hinet-interval", "scenario: " + scenario_choices());
    ScenarioConfig cfg = cli_default_config();
    cfg.nodes = args.get_uint("nodes", cfg.nodes, "number of nodes n");
    cfg.heads =
        args.get_uint("heads", cfg.heads, "generator cluster-head count");
    cfg.k = args.get_uint("k", cfg.k, "token universe size k");
    cfg.alpha =
        args.get_uint("alpha", cfg.alpha, "bounded-degree parameter alpha");
    cfg.hop_l = args.get_int32("hop-l", cfg.hop_l, "cluster radius L");
    const std::size_t reps = args.get_uint("reps", 20, "number of replicates");
    const std::uint64_t seed =
        args.get_uint("seed", 1, "base seed (replicate i uses seed + i)");
    const std::size_t jobs = args.get_jobs();
    const std::string journal_path = args.get_string(
        "journal", "", "journal file for crash-safe resume ('' = none)");
    const bool resume = args.get_bool(
        "resume", false,
        "continue a sweep whose journal already holds replicates");
    const std::size_t deadline_ms = args.get_uint(
        "deadline-ms", 0, "per-replicate wall-clock budget (0 = none)");
    const std::size_t retries = args.get_uint(
        "retries", 1, "retry budget per replicate for transient failures");
    const std::size_t abort_after = args.get_uint(
        "abort-after", 0,
        "crash lever for CI: hard-exit(42) after this many fresh "
        "replicates reached the journal (0 = off)");

    if (args.help_requested()) {
      std::cout << args.usage(
          "Supervised, journal-backed scenario sweep with crash-safe "
          "resume.\n" +
          std::string(exit_code_help()));
      return kExitOk;
    }
    for (const std::string& opt : args.unknown_options()) {
      std::cerr << "unknown option: " << opt << "\n";
      return kExitUsage;
    }

    const Scenario scenario = parse_scenario(scenario_arg);
    check_in_model(scenario, cfg);
    const SpecFactory factory = scenario_factory(scenario, cfg);

    const ExperimentOptions options{reps, seed,
                                    ExecutionPolicy::threaded(jobs)};

    std::unique_ptr<ExperimentJournal> journal;
    if (!journal_path.empty()) {
      journal = std::make_unique<ExperimentJournal>(journal_path);
      if (journal->dropped_bytes() > 0) {
        std::cerr << "note: dropped " << journal->dropped_bytes()
                  << " byte(s) of torn journal tail (crash mid-append); the "
                  << "intact prefix of " << journal->size()
                  << " replicate(s) was kept\n";
      }
      if (!journal->empty() && !resume) {
        std::cerr << "error: journal " << journal_path << " already holds "
                  << journal->size()
                  << " completed replicate(s); pass --resume to continue "
                  << "that sweep, or point --journal at a fresh path\n";
        return kExitUsage;
      }
    }

    std::atomic<std::size_t> fresh_completions{0};
    SupervisorPolicy policy;
    policy.deadline_ms = deadline_ms;
    policy.max_retries = retries;
    policy.journal = journal.get();
    policy.cancel = install_termination_cancellation();
    if (abort_after > 0) {
      policy.on_progress = [&fresh_completions, abort_after](std::size_t,
                                                             std::uint64_t) {
        const std::size_t done =
            fresh_completions.fetch_add(1, std::memory_order_relaxed) + 1;
        if (done >= abort_after) {
          // Simulated SIGKILL: no destructors, no flush beyond what the
          // journal already fsynced.  Exactly what resume must survive.
          std::_Exit(42);
        }
      };
    }

    const auto t0 = Clock::now();
    const SupervisedBatch batch =
        run_replicates_supervised(factory, options, policy);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::cout << "scenario=" << scenario_arg << " nodes=" << cfg.nodes
              << " heads=" << cfg.heads << " k=" << cfg.k
              << " alpha=" << cfg.alpha << " L=" << cfg.hop_l
              << " reps=" << reps << " seed=" << seed << " jobs=" << jobs
              << "\n";
    std::cout << "completed: " << batch.completed() << "/" << reps
              << "  from-journal: " << batch.from_journal
              << "  retried: " << batch.retried_replicates
              << "  failed: " << batch.failures.size()
              << "  cancelled: " << (batch.cancelled ? 1 : 0) << "\n";
    for (const RunError& f : batch.failures) {
      std::cout << "  failure: replicate " << f.replicate << " seed " << f.seed
                << " [" << to_string(f.cls) << ", " << f.attempts
                << " attempt(s)]: " << f.message << "\n";
    }

    if (batch.completed() == 0) {
      std::cerr << "error: no replicate completed — nothing to aggregate\n";
      return kExitFailed;
    }
    const AggregateResult agg = aggregate_supervised(batch, seconds, jobs);
    std::cout << agg.to_string() << "\n";
    std::ostringstream digest;
    digest << std::hex << std::setw(16) << std::setfill('0')
           << agg.stats_digest();
    std::cout << "stats-digest: " << digest.str() << "\n";

    if (batch.cancelled) {
      std::cout << "interrupted — rerun with --resume to finish the sweep\n";
      return kExitTransient;
    }
    return batch.failures.empty() ? kExitOk : kExitFailed;
  } catch (const std::exception& e) {
    std::cerr << "sweep_runner: " << e.what() << "\n";
    return exit_code_for_exception(e);
  }
}
