// Experiment harness: repeat a seeded simulation, aggregate the metrics.
//
// A SpecFactory builds everything one repetition needs — trace, hierarchy,
// channel, processes, engine config — as a self-owning SimulationSpec from
// a seed; run_experiment executes `repetitions` of them with derived seeds
// under an ExecutionPolicy and summarises.  All benches and sweep figures
// go through this path so their statistics are computed identically.
//
// ## ExecutionPolicy semantics
//
// The policy chooses how many worker threads execute replicates, never
// WHAT they compute: for a fixed (factory, repetitions, base_seed), every
// width produces byte-identical deterministic statistics (same_statistics
// / stats_digest) because replicate seeds derive from the replicate
// *index* (replicate_seed), results are stored by index, and aggregation
// runs in index order regardless of scheduling.
//
//   serial()       — one job: one replicate after another on the calling
//                    thread.  The reference path.
//   threaded(jobs) — a pool of `jobs` worker threads (0 = default_jobs());
//                    each worker pulls whole replicates, building and
//                    running each spec.  Wins when hardware threads are
//                    free; threaded(1) is serial().
//
// The parallel execution contract: every spec owns its whole run, so
// replicates share no mutable state; the factory must be safe to invoke
// from multiple threads concurrently (a pure function of the seed, or
// internally synchronised).
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/spec.hpp"
#include "util/stats.hpp"

namespace hinet {

using SpecFactory = std::function<SimulationSpec(std::uint64_t seed)>;

/// Seed of replicate `rep` in a batch with base seed `base_seed`.  Kept as
/// plain base + rep (the historical contract "seeds base_seed,
/// base_seed+1, ..."), centralised here so every caller derives seeds
/// the same way.  Callers validate against wraparound up front
/// (run_replicates rejects batches whose last seed would overflow);
/// this function itself stays a total constexpr.
constexpr std::uint64_t replicate_seed(std::uint64_t base_seed,
                                       std::size_t rep) {
  return base_seed + rep;
}

/// How many worker threads execute an experiment's replicates.  Every
/// width produces byte-identical statistics (see the top of this header).
struct ExecutionPolicy {
  /// Worker-pool width; 1 runs on the calling thread, 0 = default_jobs().
  std::size_t jobs = 1;

  static ExecutionPolicy serial() { return {1}; }
  static ExecutionPolicy threaded(std::size_t jobs = 0) { return {jobs}; }

  /// The width actually used: `jobs`, with 0 resolved to default_jobs().
  std::size_t effective_jobs() const;
};

/// Everything run_experiment needs besides the factory.
struct ExperimentOptions {
  std::size_t repetitions = 1;
  std::uint64_t base_seed = 0;
  ExecutionPolicy policy;
};

/// One failed replicate inside a batch: which one, with which seed, why.
struct ReplicateFailure {
  std::size_t replicate = 0;
  std::uint64_t seed = 0;
  std::string message;
};

/// Thrown by run_replicates after the whole batch drained when at least
/// one replicate failed.  Unlike a bare rethrow of the first exception,
/// this carries *every* failure — a batch with three bad seeds reports
/// three seeds, so one debugging cycle sees the full blast radius.
/// Derives from std::runtime_error so callers that only understand the
/// old single-error contract still catch it.
class ReplicateBatchError : public std::runtime_error {
 public:
  explicit ReplicateBatchError(std::vector<ReplicateFailure> failures);

  const std::vector<ReplicateFailure>& failures() const { return failures_; }

 private:
  static std::string format(const std::vector<ReplicateFailure>& failures);

  std::vector<ReplicateFailure> failures_;
};

/// Worker-pool width used when callers pass jobs == 0: the hardware
/// concurrency, or 1 when the runtime cannot report it.
std::size_t default_jobs();

/// One executed replicate: its metrics plus the wall time it took.
struct ReplicateResult {
  SimMetrics metrics;
  double wall_ms = 0.0;
};

/// Executes `repetitions` replicates with seeds replicate_seed(base_seed,
/// 0..reps-1) on up to `jobs` worker threads (0 = default_jobs()): the
/// supervisor's worker pool (analysis/supervisor.hpp) under a default
/// SupervisorPolicy.  Results are indexed by replicate, independent of
/// completion order.  Building the spec (trace generation) and running it
/// both happen on the worker, so the whole per-replicate pipeline
/// parallelises.  A failing replicate does not stop the batch: every
/// replicate runs, and if any failed a ReplicateBatchError carrying all of
/// them is thrown after the pool drains.  Rejects (PreconditionError) a
/// batch whose last seed base_seed + repetitions - 1 would wrap past 2^64 —
/// silent wraparound would alias replicate seeds onto low seeds and
/// quietly correlate "independent" repetitions.
std::vector<ReplicateResult> run_replicates(const SpecFactory& factory,
                                            std::size_t repetitions,
                                            std::uint64_t base_seed,
                                            std::size_t jobs = 1);

/// Wall-clock measurement of a batch.  Unlike the simulation statistics,
/// these values vary run to run and are excluded from same_statistics().
struct BatchTiming {
  Summary replicate_wall_ms;   ///< per-replicate wall time
  double wall_seconds = 0.0;   ///< whole-batch wall time
  double runs_per_second = 0.0;  ///< repetitions / wall_seconds
  std::size_t jobs = 1;        ///< worker-pool width actually used
};

struct AggregateResult {
  // Deterministic simulation statistics: identical (byte for byte) across
  // execution policies at equal (factory, repetitions, base_seed).
  Summary rounds_to_completion;  ///< over delivered runs only
  Summary tokens_sent;
  Summary packets_sent;
  /// Degradation under faults, over all repetitions: fraction of nodes
  /// complete at cutoff, and mean per-node token coverage.  Both are 1.0
  /// on every delivered run, so fault-free sweeps see no difference.
  Summary completion_fraction;
  Summary token_coverage;
  double delivery_rate = 0.0;  ///< fraction of repetitions that delivered
  std::size_t repetitions = 0;

  /// Replicates that errored and were excluded from the statistics above
  /// (supervised runs salvage the rest of the batch instead of discarding
  /// it).  Part of same_statistics: an aggregate over 98/100 replicates is
  /// NOT the same result as one over 100/100.
  std::size_t failed_replicates = 0;

  /// Replicates that succeeded only after one or more supervised retries.
  /// Execution history, not a statistic: excluded from same_statistics
  /// like timing (a resumed sweep legitimately retries differently).
  std::size_t retried_replicates = 0;

  // Wall-clock measurement; varies run to run.
  BatchTiming timing;

  /// True when the deterministic statistics match exactly (bitwise double
  /// equality); timing and retry history are deliberately ignored.
  bool same_statistics(const AggregateResult& other) const;

  /// FNV-1a hash over exactly the fields same_statistics compares — a
  /// one-line fingerprint for "did the resumed sweep aggregate to the same
  /// result" checks in CI, stable across processes and platforms.
  std::uint64_t stats_digest() const;

  std::string to_string() const;
};

/// Summarises replicate results in index order (order-independent w.r.t.
/// execution).  `batch_seconds`/`jobs` fill the timing block.
AggregateResult aggregate_replicates(const std::vector<ReplicateResult>& reps,
                                     double batch_seconds, std::size_t jobs);

/// THE experiment entry point: executes options.repetitions replicates of
/// the factory at seeds derived from options.base_seed under
/// options.policy, and aggregates.  Statistics do not depend on the
/// policy; timing does.
AggregateResult run_experiment(const SpecFactory& factory,
                               const ExperimentOptions& options);

}  // namespace hinet
