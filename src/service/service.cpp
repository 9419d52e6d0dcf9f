#include "service/service.hpp"

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
     << "  stale-leases: " << stale_leases
     << "  skipped-claimed: " << skipped_claimed;
  return os.str();
}

std::string ExperimentService::job_resource(std::uint64_t hash) {
  return "job-" + hash_hex(hash);
}

void ExperimentService::reopen_store() {
  store_ = std::make_unique<ResultsStore>(dir_);
}

ExperimentService::ExperimentService(std::string dir, ServiceOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  store_ = std::make_unique<ResultsStore>(dir_);  // creates dir_
  LeaseManager::Options lo;
  lo.lease_ms = options_.lease_ms;
  lo.takeover_grace_ms = options_.takeover_grace_ms;
  lo.owner = options_.drain_id;  // empty → "pid-<pid>"
  lo.now_ms = options_.now_ms;   // empty → wall clock
  leases_ = std::make_unique<LeaseManager>(dir_, lo);
  // Touch the queue once (wait mode): creates the file, salvages a torn
  // tail, compacts drained history.  Closed immediately — the queue is
  // opened transiently per mutation so N drains can share it.
  const JobQueue queue(queue_path(), options_.max_pending,
                       FramedLog::Access::kWait);
}

std::string ExperimentService::journal_path(const JobSpec& spec) const {
  return dir_ + "/job-" + spec.hash_hex() + ".journal";
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

void ExperimentService::append_ledger(std::uint8_t kind, std::uint64_t hash,
                                      std::uint64_t token) {
  FramedLog ledger(ledger_path(), kLedgerMagic, kLedgerVersion,
                   kLedgerRecordMagic, "execution ledger",
                   FramedLog::Access::kWait);
  ByteWriter w;
  w.u8(kind);
  w.u64(hash);
  w.u64(token);
  const std::string& owner = leases_->owner();
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
    r.u64();   // token — informational
    r.blob();  // owner — informational
    r.expect_done();
    ExecutionLedger::PerJob& job = out.jobs[hash];
    if (kind == ExperimentService::kLedgerClaim) {
      ++job.claims;
      ++out.total_claims;
    } else if (kind == ExperimentService::kLedgerPublish) {
      ++job.publishes;
      ++out.total_publishes;
    } else if (kind == ExperimentService::kLedgerStale) {
      ++job.stales;
      ++out.total_stales;
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
    ServiceReport& report, const std::set<std::uint64_t>& handed_back) {
  // One transient queue session: acknowledge stored jobs, then claim the
  // first job no sibling drainer holds.  The queue closes before any
  // simulation starts.
  JobQueue queue(queue_path(), options_.max_pending,
                 FramedLog::Access::kWait);
  store_->refresh();
  std::size_t foreign = 0;
  for (const JobSpec& job : queue.pending_jobs()) {
    const std::uint64_t hash = job.content_hash();
    const bool stored = store_->contains(job);

    // Tried once already by this call and handed back still pending:
    // claiming it again would spin on the same failure (or on the same
    // held journal) until the call is killed.
    if (!stored && handed_back.count(hash) != 0) continue;

    // The lease is the claim, stored job or not: its winner is the one
    // place a half-published job is resolved.  It is taken inside this
    // queue session, after the refresh above, and a publisher releases
    // its lease and marks its job done inside one queue session too, so a
    // pending job this claim wins is unstored, or stored by a drain that
    // died before marking it done.
    std::optional<LeaseLock> lease = leases_->try_acquire(job_resource(hash));
    if (!lease.has_value()) {
      // A sibling holds it, or won the race to it.  A stored job whose
      // lease is live belongs to its holder, which marks it done itself.
      ++foreign;
      continue;
    }

    // Deduped execution: a stored job (published by a sibling drain, or
    // by a drain that died after its index stage) is acknowledged without
    // simulating anything, and the dead drain's journal goes with it.
    if (stored) {
      std::remove(journal_path(job).c_str());
      lease->release();
      queue.mark_done(hash);
      ++report.cache_hits;
      continue;
    }

    // Unstored: a fresh job, or one whose publish died after its segment
    // stage.  Its journal holds what was done; the claim re-publishes it.
    return ClaimedJob{job, std::move(*lease)};
  }
  // Nothing claimable: report what was left to sibling drainers (this
  // final pass's count, not a sum over passes).
  report.skipped_claimed += foreign;
  return std::nullopt;
}

bool ExperimentService::execute_claimed(ClaimedJob claimed,
                                        ServiceReport& report) {
  const JobSpec job = claimed.job;
  const std::uint64_t hash = job.content_hash();
  LeaseLock& lease = claimed.lease;

  // Execute the missing replicates under the supervisor, journaling
  // completions durably.  A journal left by a killed run prefills
  // finished replicates, so nothing executes twice.  The journal passes
  // to any successor that takes the job over — results are pure
  // functions of (spec, seed), so replicates journaled by a fenced
  // zombie are byte-identical to what the successor would compute.
  std::optional<ExperimentJournal> journal;
  try {
    journal.emplace(journal_path(job));
  } catch (const ConcurrentWriterError&) {
    // A live writer still holds the journal: a drain stopped
    // mid-simulation whose lease we took over.  Leave the job to it; its
    // replicates land in the journal, and a later run resumes from them.
    lease.release();
    ++report.skipped_claimed;
    return true;
  }
  append_ledger(kLedgerClaim, hash, lease.token());
  report.resumed_replicates += journal->size();

  std::atomic<bool> stop{false};
  std::atomic<bool> lease_lost{false};

  SupervisorPolicy policy;
  policy.deadline_ms = options_.deadline_ms;
  policy.max_retries = options_.max_retries;
  policy.journal = &*journal;
  policy.cancel = &stop;
  policy.on_progress = [&](std::size_t, std::uint64_t) {
    // The heartbeat: every journaled replicate renews the lease.  A
    // failed renew means a successor took the job — stop promptly, the
    // fencing token would refuse our publish anyway.
    if (!lease.renew()) {
      lease_lost.store(true, std::memory_order_relaxed);
      stop.store(true, std::memory_order_relaxed);
    }
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      stop.store(true, std::memory_order_relaxed);
    }
  };

  const SpecFactory factory = scenario_factory(job.scenario, job.config);
  const ExperimentOptions exp{static_cast<std::size_t>(job.repetitions),
                              job.base_seed, options_.policy};
  const SupervisedBatch batch =
      run_replicates_supervised(factory, exp, policy);
  // Single-writer: close before publishing, so a successor that takes
  // the job over from here can open the journal and resume from it.
  journal.reset();

  if (lease_lost.load(std::memory_order_relaxed)) {
    // Taken over mid-execution.  The job is the successor's now; our
    // journal stays for it to resume from.  The lease object is already
    // ownerless.
    append_ledger(kLedgerStale, hash, lease.token());
    ++report.stale_leases;
    return false;
  }

  if (batch.cancelled) {
    // Journal keeps what completed; the job stays pending for resume.
    report.cancelled = true;
    lease.release();
    return false;
  }

  if (batch.completed() == job.repetitions) {
    std::vector<ReplicateResult> replicates;
    replicates.reserve(batch.slots.size());
    for (const std::optional<ReplicateResult>& slot : batch.slots) {
      replicates.push_back(*slot);
    }
    if (options_.on_job_will_publish) options_.on_job_will_publish(job);
    const Fencing fencing{leases_.get(), job_resource(hash), lease.token()};
    try {
      store_->publish(job, replicates, &fencing);
    } catch (const StaleLeaseError&) {
      // Fenced out at a commit stage: the successor owns the job and
      // will (or did) publish the identical result.  The handle is
      // poisoned — reopen it before the next job.
      reopen_store();
      append_ledger(kLedgerStale, hash, lease.token());
      ++report.stale_leases;
      return false;
    }
    append_ledger(kLedgerPublish, hash, lease.token());
    // The journal is now redundant (the store owns the result); its
    // removal is pure cleanup — a resurrected journal is harmless
    // because the store hit short-circuits before it is ever opened.
    std::remove(journal_path(job).c_str());
    {
      // Release, then mark done, in one queue session: claims need its
      // lock, so none interleaves.  A crash between the two leaves the
      // job pending and unleased, and the next drain acknowledges it.
      JobQueue queue(queue_path(), options_.max_pending,
                     FramedLog::Access::kWait);
      lease.release();
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
  if (permanent) {
    {
      JobQueue queue(queue_path(), options_.max_pending,
                     FramedLog::Access::kWait);
      if (queue.is_pending(hash)) queue.mark_failed(hash, why.str());
    }
    std::remove(journal_path(job).c_str());
    ++report.failed_jobs;
  } else {
    ++report.deferred_jobs;
  }
  lease.release();
  return !permanent;
}

ServiceReport ExperimentService::run_pending() {
  ServiceReport report;
  std::set<std::uint64_t> handed_back;
  for (;;) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      report.cancelled = true;
      break;
    }
    std::optional<ClaimedJob> claimed = claim_next(report, handed_back);
    if (!claimed.has_value()) break;
    const std::uint64_t hash = claimed->job.content_hash();
    if (execute_claimed(std::move(*claimed), report)) {
      handed_back.insert(hash);
    }
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
