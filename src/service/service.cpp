#include "service/service.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "analysis/scenarios.hpp"
#include "util/require.hpp"

namespace hinet {

std::string ServiceReport::to_string() const {
  std::ostringstream os;
  os << "executed: " << executed_jobs << "  cache-hits: " << cache_hits
     << "  deferred: " << deferred_jobs << "  failed: " << failed_jobs
     << "  resumed-replicates: " << resumed_replicates
     << "  cancelled: " << (cancelled ? 1 : 0)
     << "  skipped-claimed: " << skipped_claimed;
  return os.str();
}

std::string ExperimentService::job_resource(std::uint64_t hash) {
  return "job-" + hash_hex(hash);
}

ExperimentService::ExperimentService(std::string dir, ServiceOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  store_ = std::make_unique<ResultsStore>(dir_);  // creates dir_
  if (options_.drain_id.empty()) {
    options_.drain_id = "pid-" + std::to_string(::getpid());
  }
  // Touch the queue once (wait mode): creates the file, salvages a torn
  // tail, compacts drained history.  Closed immediately — the queue is
  // opened transiently per mutation so N drains can share it.
  const JobQueue queue(queue_path(), options_.max_pending,
                       FramedLog::Access::kWait);
}

std::string ExperimentService::journal_path(const JobSpec& spec) const {
  return dir_ + "/" + job_resource(spec.content_hash()) + ".journal";
}

std::size_t ExperimentService::pending() const {
  const JobQueue queue(queue_path(), options_.max_pending,
                       FramedLog::Access::kReadOnly);
  return queue.pending();
}

std::vector<JobSpec> ExperimentService::pending_jobs() const {
  const JobQueue queue(queue_path(), options_.max_pending,
                       FramedLog::Access::kReadOnly);
  return queue.pending_jobs();
}

void ExperimentService::append_ledger(std::uint8_t kind, std::uint64_t hash) {
  FramedLog ledger(ledger_path(), kLedgerMagic, kLedgerVersion,
                   kLedgerRecordMagic, "execution ledger",
                   FramedLog::Access::kWait);
  ByteWriter w;
  w.u8(kind);
  w.u64(hash);
  const std::string& owner = options_.drain_id;
  const std::span<const std::uint8_t> owner_bytes(
      reinterpret_cast<const std::uint8_t*>(owner.data()), owner.size());
  w.blob(owner_bytes);
  ledger.append(w.buffer());
}

ExecutionLedger read_execution_ledger(const std::string& dir) {
  ExecutionLedger out;
  const FramedLog ledger(dir + "/ledger.hle",
                         ExperimentService::kLedgerMagic,
                         ExperimentService::kLedgerVersion,
                         ExperimentService::kLedgerRecordMagic,
                         "execution ledger", FramedLog::Access::kReadOnly);
  for (const std::vector<std::uint8_t>& rec : ledger.records()) {
    ByteReader r(rec, "execution-ledger record");
    const std::uint8_t kind = r.u8();
    const std::uint64_t hash = r.u64();
    const auto owner = r.blob();
    r.expect_done();
    ExecutionLedger::PerJob& job = out.jobs[hash];
    if (kind == ExperimentService::kLedgerClaim) {
      ++job.claims;
      ++out.total_claims;
      job.claimed_by.assign(owner.begin(), owner.end());
    } else if (kind == ExperimentService::kLedgerPublish) {
      ++job.publishes;
      ++out.total_publishes;
    } else {
      std::ostringstream os;
      os << "execution-ledger record has unknown kind "
         << static_cast<unsigned>(kind) << " — the ledger is corrupt";
      throw IoError(os.str());
    }
  }
  return out;
}

ExperimentService::SubmitOutcome ExperimentService::submit(
    const JobSpec& spec) {
  HINET_REQUIRE(spec.repetitions > 0, "a job needs at least one replicate");
  HINET_REQUIRE(
      spec.base_seed <= std::numeric_limits<std::uint64_t>::max() -
                            (spec.repetitions - 1),
      "base_seed + repetitions would wrap past 2^64 and alias seeds");
  store_->refresh();  // another drainer may have published it meanwhile
  if (store_->contains(spec)) return SubmitOutcome::kCacheHit;
  JobQueue queue(queue_path(), options_.max_pending,
                 FramedLog::Access::kWait);
  return queue.submit(spec) == JobQueue::Submit::kEnqueued
             ? SubmitOutcome::kEnqueued
             : SubmitOutcome::kAlreadyPending;
}

std::optional<ExperimentService::ClaimedJob> ExperimentService::claim_next(
    ServiceReport& report, const std::set<std::uint64_t>& deferred) {
  // One transient queue session: acknowledge stored jobs, then claim the
  // first job no live sibling holds.  The queue closes before any
  // simulation starts.
  JobQueue queue(queue_path(), options_.max_pending,
                 FramedLog::Access::kWait);
  std::size_t foreign = 0;
  for (const JobSpec& job : queue.pending_jobs()) {
    const std::uint64_t hash = job.content_hash();
    if (deferred.count(hash) != 0) continue;

    // The journal is the claim.  Only queue sessions create journals, and
    // a holder publishes before it unlinks its journal, so once the
    // journal is won or seen absent, a fresh read of the store shows
    // every publish of the job there is going to be.
    const std::string path = journal_path(job);
    std::unique_ptr<ExperimentJournal> journal;
    if (::access(path.c_str(), F_OK) == 0) {
      try {
        journal = std::make_unique<ExperimentJournal>(path);
      } catch (const ConcurrentWriterError&) {
        ++foreign;  // a live sibling holds the job; it marks it done itself
        continue;
      }
    }
    store_->refresh();
    if (store_->contains(job)) {
      // Published by a drain that died, or that is about to find the job
      // done: acknowledge it without simulating or creating a journal.
      if (journal != nullptr) std::remove(path.c_str());
      queue.mark_done(hash);
      ++report.cache_hits;
      continue;
    }
    // Unstored: a fresh job, or one whose publish died after its segment
    // stage.  Its journal holds what was done; the claim re-publishes it.
    if (journal == nullptr) journal = std::make_unique<ExperimentJournal>(path);
    return ClaimedJob{job, std::move(journal)};
  }
  // Nothing claimable: report what was left to sibling drainers (this
  // final pass's count, not a sum over passes).
  report.skipped_claimed += foreign;
  return std::nullopt;
}

bool ExperimentService::execute_claimed(ClaimedJob claimed,
                                        ServiceReport& report) {
  const JobSpec& job = claimed.job;
  const std::uint64_t hash = job.content_hash();
  ExperimentJournal& journal = *claimed.journal;

  // Execute the missing replicates under the supervisor, journaling
  // completions durably.  A journal left by a killed run prefills
  // finished replicates, so nothing executes twice.
  append_ledger(kLedgerClaim, hash);
  report.resumed_replicates += journal.size();
  SupervisorPolicy policy;
  policy.deadline_ms = options_.deadline_ms;
  policy.max_retries = options_.max_retries;
  policy.journal = &journal;
  policy.cancel = options_.cancel;
  const SpecFactory factory = scenario_factory(job.scenario, job.config);
  const ExperimentOptions exp{static_cast<std::size_t>(job.repetitions),
                              job.base_seed, options_.policy};
  const SupervisedBatch batch =
      run_replicates_supervised(factory, exp, policy);

  if (batch.cancelled) {
    // Journal keeps what completed; the job stays pending for resume.
    report.cancelled = true;
    return false;
  }

  if (batch.completed() == job.repetitions) {
    std::vector<ReplicateResult> replicates;
    replicates.reserve(batch.slots.size());
    for (const std::optional<ReplicateResult>& slot : batch.slots) {
      replicates.push_back(*slot);
    }
    if (options_.on_job_will_publish) options_.on_job_will_publish(job);
    store_->publish(job, replicates);
    append_ledger(kLedgerPublish, hash);
    // Unlink the journal while its lock is held, then mark the job done:
    // a crash in between leaves a pending stored job with no journal,
    // which the next claim acknowledges.
    std::remove(journal.path().c_str());
    {
      JobQueue queue(queue_path(), options_.max_pending,
                     FramedLog::Access::kWait);
      if (queue.is_pending(hash)) queue.mark_done(hash);
    }
    ++report.executed_jobs;
    if (options_.on_job_published) options_.on_job_published(job);
    return false;
  }

  // Partial completion.  Transient failures leave the job pending (the
  // journal holds the finished replicates; a re-run finishes the rest);
  // a deterministic failure would fail identically forever, so it is
  // acknowledged as permanently failed.
  bool permanent = false;
  std::ostringstream why;
  why << "job " << job.hash_hex() << " (" << job.describe() << "): ";
  for (const RunError& f : batch.failures) {
    if (!is_transient(f.cls)) permanent = true;
    why << "[replicate " << f.replicate << " seed " << f.seed << " "
        << to_string(f.cls) << ": " << f.message << "] ";
  }
  report.failure_messages.push_back(why.str());
  if (!permanent) {
    ++report.deferred_jobs;
    return true;
  }
  {
    JobQueue queue(queue_path(), options_.max_pending,
                   FramedLog::Access::kWait);
    if (queue.is_pending(hash)) queue.mark_failed(hash, why.str());
  }
  std::remove(journal.path().c_str());
  ++report.failed_jobs;
  return false;
}

ServiceReport ExperimentService::run_pending() {
  ServiceReport report;
  std::set<std::uint64_t> deferred;
  for (;;) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      report.cancelled = true;
      break;
    }
    std::optional<ClaimedJob> claimed = claim_next(report, deferred);
    if (!claimed.has_value()) break;
    const std::uint64_t hash = claimed->job.content_hash();
    if (execute_claimed(std::move(*claimed), report)) deferred.insert(hash);
    if (report.cancelled) break;
  }
  return report;
}

// ── Query path ──────────────────────────────────────────────────────────

// detlint: hot-path-begin — the query/serve path runs once per stored
// replicate set per client request; curve buffers are sized up front with
// assign()/construction and the per-round loops must not grow them.
CompletionCurve completion_curve(const StoredResult& result) {
  CompletionCurve curve;
  curve.nodes = result.spec.config.nodes;
  curve.replicates = result.replicates.size();
  std::size_t rounds = 0;
  for (const ReplicateResult& rep : result.replicates) {
    rounds = std::max(rounds, rep.metrics.complete_nodes_per_round.size());
  }
  curve.mean_complete_nodes.assign(rounds, 0.0);
  if (curve.replicates == 0) return curve;
  for (const ReplicateResult& rep : result.replicates) {
    const std::vector<std::size_t>& series =
        rep.metrics.complete_nodes_per_round;
    for (std::size_t r = 0; r < rounds; ++r) {
      // Replicates that stopped early hold their final value afterwards.
      const std::size_t v = series.empty()
                                ? 0
                                : series[std::min(r, series.size() - 1)];
      curve.mean_complete_nodes[r] += static_cast<double>(v);
    }
  }
  for (double& v : curve.mean_complete_nodes) {
    v /= static_cast<double>(curve.replicates);
  }
  return curve;
}
// detlint: hot-path-end

AggregateResult aggregate_stored(const StoredResult& result) {
  return aggregate_replicates(result.replicates, 0.0, 1);
}

std::string CrossoverReport::to_string() const {
  std::ostringstream os;
  os << "mean-rounds a=" << mean_rounds_a << " b=" << mean_rounds_b
     << " winner="
     << (winner < 0 ? "a" : (winner > 0 ? "b" : "tie"));
  const auto print_from = [&os](const char* who, std::size_t from) {
    os << " " << who << "-dominates-from=";
    if (from == std::numeric_limits<std::size_t>::max()) {
      os << "never";
    } else {
      os << from;
    }
  };
  print_from("a", a_dominates_from);
  print_from("b", b_dominates_from);
  return os.str();
}

namespace {

// detlint: hot-path-begin — crossover comparison scans every round of both
// curves; the scratch fraction vector is sized at construction.
/// First round index from which x's completion fraction is >= y's at
/// every later round (curves padded with their final values); SIZE_MAX
/// when x never takes the lead for good.
std::size_t dominates_from(const std::vector<double>& x_frac,
                           const std::vector<double>& y_frac) {
  const std::size_t rounds = std::max(x_frac.size(), y_frac.size());
  if (rounds == 0) return std::numeric_limits<std::size_t>::max();
  const auto at = [](const std::vector<double>& v, std::size_t r) {
    if (v.empty()) return 0.0;
    return v[std::min(r, v.size() - 1)];
  };
  std::size_t from = std::numeric_limits<std::size_t>::max();
  for (std::size_t r = 0; r < rounds; ++r) {
    if (at(x_frac, r) >= at(y_frac, r)) {
      if (from == std::numeric_limits<std::size_t>::max()) from = r;
    } else {
      from = std::numeric_limits<std::size_t>::max();
    }
  }
  return from;
}

std::vector<double> fraction_curve(const StoredResult& result) {
  const CompletionCurve curve = completion_curve(result);
  std::vector<double> frac(curve.mean_complete_nodes.size(), 0.0);
  const double n = static_cast<double>(std::max<std::size_t>(1, curve.nodes));
  for (std::size_t r = 0; r < frac.size(); ++r) {
    frac[r] = curve.mean_complete_nodes[r] / n;
  }
  return frac;
}
// detlint: hot-path-end

}  // namespace

CrossoverReport find_crossover(const StoredResult& a, const StoredResult& b) {
  CrossoverReport report;
  const AggregateResult agg_a = aggregate_stored(a);
  const AggregateResult agg_b = aggregate_stored(b);
  report.mean_rounds_a = agg_a.rounds_to_completion.mean;
  report.mean_rounds_b = agg_b.rounds_to_completion.mean;
  if (report.mean_rounds_a < report.mean_rounds_b) {
    report.winner = -1;
  } else if (report.mean_rounds_b < report.mean_rounds_a) {
    report.winner = 1;
  }
  const std::vector<double> frac_a = fraction_curve(a);
  const std::vector<double> frac_b = fraction_curve(b);
  report.a_dominates_from = dominates_from(frac_a, frac_b);
  report.b_dominates_from = dominates_from(frac_b, frac_a);
  return report;
}

// detlint: hot-path-begin — digesting streams every round's mean through
// the ByteWriter; growth happens inside the writer's amortized buffer, not
// in this loop.
std::uint64_t query_digest(const StoredResult& result) {
  ByteWriter w;
  w.u64(aggregate_stored(result).stats_digest());
  const CompletionCurve curve = completion_curve(result);
  w.u64(curve.nodes);
  w.u64(curve.replicates);
  w.u64(curve.mean_complete_nodes.size());
  for (const double v : curve.mean_complete_nodes) w.f64(v);
  return fnv1a64(w.buffer());
}
// detlint: hot-path-end

}  // namespace hinet
