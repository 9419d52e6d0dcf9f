#include "analysis/experiment.hpp"

#include <array>
#include <bit>
#include <chrono>
#include <sstream>
#include <thread>

#include "analysis/supervisor.hpp"
#include "util/binary_io.hpp"

namespace hinet {

std::size_t ExecutionPolicy::effective_jobs() const {
  return jobs == 0 ? default_jobs() : jobs;
}

ReplicateBatchError::ReplicateBatchError(std::vector<ReplicateFailure> failures)
    : std::runtime_error(format(failures)), failures_(std::move(failures)) {}

std::string ReplicateBatchError::format(
    const std::vector<ReplicateFailure>& failures) {
  std::ostringstream os;
  os << failures.size() << " replicate(s) failed:";
  for (const ReplicateFailure& f : failures) {
    os << "\n  replicate " << f.replicate << " (seed " << f.seed
       << "): " << f.message;
  }
  return os.str();
}

namespace {

// Whole-experiment wall time is observability only: it is excluded from
// aggregate stats and never feeds simulation state.
// detlint-allow(banned-time): experiment wall-time is a bench-style timer
using Clock = std::chrono::steady_clock;

}  // namespace

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::vector<ReplicateResult> run_replicates(const SpecFactory& factory,
                                            std::size_t repetitions,
                                            std::uint64_t base_seed,
                                            std::size_t jobs) {
  SupervisedBatch batch = run_replicates_supervised(
      factory, ExperimentOptions{repetitions, base_seed, ExecutionPolicy{jobs}},
      SupervisorPolicy{});
  if (!batch.failures.empty()) {
    // Supervised failures arrive sorted by replicate index, so the same
    // failing batch always reads the same.
    std::vector<ReplicateFailure> failures;
    failures.reserve(batch.failures.size());
    for (RunError& f : batch.failures) {
      failures.push_back(
          ReplicateFailure{f.replicate, f.seed, std::move(f.message)});
    }
    throw ReplicateBatchError(std::move(failures));
  }
  std::vector<ReplicateResult> out;
  out.reserve(batch.slots.size());
  for (std::optional<ReplicateResult>& slot : batch.slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

AggregateResult aggregate_replicates(const std::vector<ReplicateResult>& reps,
                                     double batch_seconds, std::size_t jobs) {
  std::vector<double> rounds, tokens, packets, completion, coverage, wall;
  std::size_t delivered = 0;
  for (const ReplicateResult& r : reps) {
    tokens.push_back(static_cast<double>(r.metrics.tokens_sent));
    packets.push_back(static_cast<double>(r.metrics.packets_sent));
    completion.push_back(r.metrics.completion_fraction());
    coverage.push_back(r.metrics.token_coverage());
    wall.push_back(r.wall_ms);
    if (r.metrics.all_delivered) {
      ++delivered;
      rounds.push_back(static_cast<double>(r.metrics.rounds_to_completion));
    }
  }
  AggregateResult out;
  out.repetitions = reps.size();
  out.delivery_rate =
      static_cast<double>(delivered) / static_cast<double>(reps.size());
  out.rounds_to_completion = summarize(std::move(rounds));
  out.tokens_sent = summarize(std::move(tokens));
  out.packets_sent = summarize(std::move(packets));
  out.completion_fraction = summarize(std::move(completion));
  out.token_coverage = summarize(std::move(coverage));
  out.timing.replicate_wall_ms = summarize(std::move(wall));
  out.timing.wall_seconds = batch_seconds;
  out.timing.runs_per_second =
      batch_seconds > 0.0
          ? static_cast<double>(reps.size()) / batch_seconds
          : 0.0;
  out.timing.jobs = jobs;
  return out;
}

bool AggregateResult::same_statistics(const AggregateResult& other) const {
  return rounds_to_completion == other.rounds_to_completion &&
         tokens_sent == other.tokens_sent &&
         packets_sent == other.packets_sent &&
         completion_fraction == other.completion_fraction &&
         token_coverage == other.token_coverage &&
         delivery_rate == other.delivery_rate &&
         repetitions == other.repetitions &&
         failed_replicates == other.failed_replicates;
}

std::uint64_t AggregateResult::stats_digest() const {
  // FNV-1a over each field's 8 little-endian bytes, doubles as their
  // IEEE-754 bit patterns, so the digest is exactly as strict as
  // same_statistics' bitwise comparison.  The bytes sit in a fixed buffer:
  // every service query digests its result.
  std::array<std::uint8_t, 8 * (5 * 7 + 3)> bytes{};
  std::size_t at = 0;
  const auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const auto f64 = [&](double v) { u64(std::bit_cast<std::uint64_t>(v)); };
  for (const Summary* s : {&rounds_to_completion, &tokens_sent, &packets_sent,
                           &completion_fraction, &token_coverage}) {
    u64(s->n);
    f64(s->mean);
    f64(s->stddev);
    f64(s->min);
    f64(s->max);
    f64(s->p50);
    f64(s->p95);
  }
  f64(delivery_rate);
  u64(repetitions);
  u64(failed_replicates);
  return fnv1a64(bytes);
}

std::string AggregateResult::to_string() const {
  std::ostringstream os;
  os << "reps=" << repetitions << " delivery=" << delivery_rate * 100.0
     << "% rounds{mean=" << rounds_to_completion.mean
     << "} tokens{mean=" << tokens_sent.mean << "}";
  if (delivery_rate < 1.0) {
    os << " completion{mean=" << completion_fraction.mean
       << "} coverage{mean=" << token_coverage.mean << "}";
  }
  os << " jobs=" << timing.jobs << " throughput=" << timing.runs_per_second
     << " runs/s";
  return os.str();
}

AggregateResult run_experiment(const SpecFactory& factory,
                               const ExperimentOptions& options) {
  const std::size_t jobs = options.policy.effective_jobs();
  const auto t0 = Clock::now();
  const std::vector<ReplicateResult> results =
      run_replicates(factory, options.repetitions, options.base_seed, jobs);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return aggregate_replicates(results, seconds, jobs);
}

}  // namespace hinet
