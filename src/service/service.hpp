// ExperimentService: the simulate-once-serve-many layer.
//
// Ties together the three durable pieces — JobQueue (admission),
// ResultsStore (content-addressed results) and the per-job
// ExperimentJournal (in-flight replicate progress) — around the existing
// supervised experiment runner:
//
//   submit(spec)     → cache hit (already stored: nothing to execute),
//                      enqueued, or already pending.  Queue at capacity is
//                      an explicit QueueFullError, never unbounded growth.
//   run_pending()    → drains the queue.  Each job executes its *missing*
//                      replicates through run_replicates_supervised under
//                      the configured ExecutionPolicy (deadlines, retry
//                      taxonomy, partial-batch salvage), journaling each
//                      completed replicate durably.  A fully completed job
//                      is published to the store through the staged commit
//                      protocol and its journal deleted; a partially
//                      completed one keeps its journal and stays pending —
//                      kill -9 at any moment costs at most the replicate
//                      in flight, and no journaled replicate or stored job
//                      is ever executed twice.
//   query helpers    → completion curves, crossover lookups and a
//                      deterministic query digest served purely from the
//                      store, without re-simulating.
//
// Everything is observable: the service report and the store counters
// (hits/misses) make the cache behaviour auditable — the CI acceptance
// check literally greps them.
//
// ## Concurrent drains
//
// N service instances (N `hinetd run` processes) may share one directory.
// run_pending() claims one job at a time inside a transient queue session
// (wait-mode FramedLog, a short lock-mutate-close section): the claim on a
// job is its journal.  The journal is a FramedLog, so opening it takes a
// non-blocking exclusive flock; a ConcurrentWriterError means a live
// sibling holds the job, and the kernel drops the lock the moment its
// holder dies, so a dead drain's job is claimable at once.  The queue
// closes before the simulation starts; the journal stays held through the
// publish and the queue's done mark.  The store is read after the journal
// is won (or seen absent), and that is the one place a half-published job
// is resolved: a job whose publish died after the segment stage is still
// unstored, so its winner re-publishes it from the journal; one that died
// after the index stage is stored, so its winner acknowledges it (journal
// unlinked, job marked done) without creating a journal.
//
// Locks: a journal is only ever tried non-blocking.  The queue, the ledger
// and store.lock are the blocking locks, and no two of them are held at
// once.  A finished job is published, recorded in the ledger, its journal
// unlinked while still locked, marked done in a queue session and only
// then closed, so a crash at any point leaves nothing behind or a pending
// stored job that the next claim acknowledges.
//
// Every claim and publish is appended to <dir>/ledger.hle — the
// append-only execution ledger `hinetd status` reports and the CI
// multi-drain smoke asserts over ("no job published twice").
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/journal.hpp"
#include "analysis/supervisor.hpp"
#include "service/job_queue.hpp"
#include "service/results_store.hpp"

namespace hinet {

struct ServiceOptions {
  /// Admission bound for the queue.
  std::size_t max_pending = 256;

  /// How many worker threads execute each job's replicates (default:
  /// serial, on the calling thread).
  ExecutionPolicy policy;

  /// Per-replicate wall budget and retry budget, passed to the supervisor.
  std::size_t deadline_ms = 0;
  std::size_t max_retries = 1;

  /// Cooperative cancellation (SIGINT/SIGTERM); checked between jobs and
  /// by the supervisor between replicates.  Not owned.
  const std::atomic<bool>* cancel = nullptr;

  /// Invoked after a job's results were fully published and acknowledged
  /// (the CI crash lever hard-exits here to simulate SIGKILL).
  std::function<void(const JobSpec&)> on_job_published;

  /// This drainer's identity in the ledger.  Empty: "pid-<pid>".
  std::string drain_id;

  /// Test seam: invoked after a job's replicates completed, immediately
  /// before the store publish begins (the torture harness parks the
  /// holder here while a sibling drains).
  std::function<void(const JobSpec&)> on_job_will_publish;
};

/// What run_pending did, per drained queue entry and in total.
struct ServiceReport {
  std::size_t executed_jobs = 0;   ///< simulated and published this run
  /// Already stored: its journal (if any) won and unlinked and the job
  /// marked done — served, not re-run.
  std::size_t cache_hits = 0;
  std::size_t failed_jobs = 0;     ///< left the queue permanently failed
  std::size_t deferred_jobs = 0;   ///< transient failure — still pending
  std::size_t resumed_replicates = 0;  ///< journal-recovered, not re-run
  /// Pending jobs left alone because another writer holds their journal
  /// (a stored job too: its holder marks it done) — they are *someone
  /// else's* work, not a failure.
  std::size_t skipped_claimed = 0;
  bool cancelled = false;          ///< stopped on the cancel flag
  std::vector<std::string> failure_messages;

  std::string to_string() const;
};

class ExperimentService {
 public:
  enum class SubmitOutcome { kCacheHit, kEnqueued, kAlreadyPending };

  // Execution-ledger file format (<dir>/ledger.hle): an append-only
  // FramedLog of {u8 kind, u64 hash, owner blob} records — the audit
  // trail of who executed what (never compacted).
  static constexpr std::uint32_t kLedgerMagic = 0x4c'45'53'48u;  // "HSEL"
  static constexpr std::uint16_t kLedgerVersion = 2;
  static constexpr std::uint32_t kLedgerRecordMagic = 0x52'45'53'48u;  // HSER
  static constexpr std::uint8_t kLedgerClaim = 1;
  static constexpr std::uint8_t kLedgerPublish = 2;

  /// Opens (creating) the service state under `dir`: <dir>/queue.hjq,
  /// <dir>/index.hix + segments + store.lock, <dir>/ledger.hle, and
  /// <dir>/job-<hash>.journal while a job is in flight.  Nothing is
  /// resolved here: run_pending() resolves a half-published job when it
  /// wins the job's journal.
  ExperimentService(std::string dir, ServiceOptions options);

  ResultsStore& store() { return *store_; }
  const ResultsStore& store() const { return *store_; }

  /// Current queue backlog, observed through a transient read-only open
  /// (safe while other drainers hold the queue).
  std::size_t pending() const;
  std::vector<JobSpec> pending_jobs() const;

  /// Content-addressed admission: a stored job is a pure cache hit (no
  /// queue traffic), a pending one is deduped, a new one is durably
  /// enqueued.  Throws QueueFullError at capacity.
  SubmitOutcome submit(const JobSpec& spec);

  /// Drains the queue one claimed job at a time until no job can be
  /// claimed (empty, or every remainder is a sibling drainer's).  Each
  /// call tries a job at most once: a deferred one waits for the next
  /// call.  Never throws for per-job failures — they land in the report;
  /// throws only for store/queue-level corruption (IoError).
  ServiceReport run_pending();

  /// Path of the in-flight journal for a job (exists only between first
  /// replicate and publish).
  std::string journal_path(const JobSpec& spec) const;

  std::string queue_path() const { return dir_ + "/queue.hjq"; }
  std::string ledger_path() const { return dir_ + "/ledger.hle"; }

  /// The journal and ledger name of a job hash: "job-<16 hex>".
  static std::string job_resource(std::uint64_t hash);

 private:
  struct ClaimedJob {
    JobSpec job;
    std::unique_ptr<ExperimentJournal> journal;  ///< held: the claim
  };

  /// Claims the first pending job no sibling holds, skipping the jobs in
  /// `deferred` (this run_pending call already tried them).
  std::optional<ClaimedJob> claim_next(
      ServiceReport& report, const std::set<std::uint64_t>& deferred);
  /// Runs one claimed job.  Returns true when it deferred the job.
  bool execute_claimed(ClaimedJob claimed, ServiceReport& report);
  void append_ledger(std::uint8_t kind, std::uint64_t hash);

  std::string dir_;
  ServiceOptions options_;
  std::unique_ptr<ResultsStore> store_;
};

/// Per-job execution counts replayed from <dir>/ledger.hle — the "no job
/// executed twice" evidence: `publishes` is at most 1 per hash no matter
/// how many drainers were killed and restarted.
struct ExecutionLedger {
  struct PerJob {
    std::size_t claims = 0;     ///< executions begun (resumes included)
    std::size_t publishes = 0;  ///< durable publishes acknowledged
    std::string claimed_by;     ///< the drain of the latest claim
  };
  std::map<std::uint64_t, PerJob> jobs;
  std::size_t total_claims = 0;
  std::size_t total_publishes = 0;
};

/// Replays the execution ledger read-only (missing file: empty ledger).
ExecutionLedger read_execution_ledger(const std::string& dir);

// ── Query path: served from the store, never simulating ────────────────

/// Mean completion curve over a job's replicates: entry r is the mean
/// number of nodes holding all k tokens after round r, padded with each
/// replicate's final value when replicates ran different round counts.
struct CompletionCurve {
  std::size_t nodes = 0;
  std::size_t replicates = 0;
  std::vector<double> mean_complete_nodes;
};

CompletionCurve completion_curve(const StoredResult& result);

/// Aggregate statistics recomputed from the stored replicates — identical
/// (stats_digest and all) to what the original sweep printed, because
/// aggregation is a deterministic index-ordered fold.
AggregateResult aggregate_stored(const StoredResult& result);

/// Where two stored jobs' completion curves cross — the paper's "who wins
/// where" lookup (e.g. Alg1/Alg2 vs KLO) as a pure store query.
struct CrossoverReport {
  double mean_rounds_a = 0.0;  ///< mean rounds_to_completion (delivered)
  double mean_rounds_b = 0.0;
  int winner = 0;  ///< -1: a completes first, +1: b, 0: tie
  /// First round index from which a's mean completion-fraction curve
  /// dominates b's for every later round (SIZE_MAX when it never does).
  std::size_t a_dominates_from = 0;
  std::size_t b_dominates_from = 0;

  std::string to_string() const;
};

CrossoverReport find_crossover(const StoredResult& a, const StoredResult& b);

/// Deterministic digest over everything a query serves (aggregate
/// statistics + completion curve): byte-identical across reopenings,
/// recoveries and re-queries of the same stored job.  The CI
/// kill-and-recover smoke diffs this against an uninterrupted run.
std::uint64_t query_digest(const StoredResult& result);

}  // namespace hinet
