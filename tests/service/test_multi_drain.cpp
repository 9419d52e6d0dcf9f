// Multi-process drain torture, run deterministically in-process: two
// ExperimentService instances share one directory and one fake clock, and
// test hooks interleave them at the exact boundaries that matter — while
// a job is claimed, between replicate completion and publish, and after
// each of the two commit stages.  The invariants under torture:
//
//   * every submitted job ends up stored exactly once (ledger publishes
//     == 1 per hash, no matter who won);
//   * a drain that died mid-publish is finished by whoever next wins the
//     job's lease: re-published from its journal after the segment stage,
//     acknowledged after the index stage, and no journal or lease of the
//     dead drain survives;
//   * the stored result is byte-identical (query_digest) to an
//     uninterrupted single-drain run — takeovers resume from the
//     zombie's journal instead of re-executing;
//   * a fenced zombie reports stale-leases, never corrupts, never throws
//     out of run_pending();
//   * a writable queue is single-writer (ConcurrentWriterError), while
//     read-only observers are never blocked;
//   * a job whose journal another writer still holds is skipped, not
//     spun on, and resumes from that journal once it is free.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/journal.hpp"
#include "analysis/scenarios.hpp"
#include "service/lease_lock.hpp"
#include "service/results_store.hpp"
#include "service/service.hpp"
#include "util/framed_log.hpp"

namespace hinet {
namespace {

JobSpec tiny_spec(std::uint64_t base_seed = 7, std::uint64_t reps = 2) {
  JobSpec spec;
  spec.scenario = Scenario::kHiNetOne;
  spec.config.nodes = 12;
  spec.config.heads = 3;
  spec.config.k = 3;
  spec.config.alpha = 2;
  spec.config.hop_l = 2;
  spec.base_seed = base_seed;
  spec.repetitions = reps;
  return spec;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "hinet_mdrain_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The ground truth: what an uninterrupted single drain stores.
std::uint64_t clean_digest(const JobSpec& spec) {
  ExperimentService service(fresh_dir("clean-" + spec.hash_hex()), {});
  service.submit(spec);
  service.run_pending();
  return query_digest(*service.store().load(spec));
}

ServiceOptions drain_options(const std::shared_ptr<std::uint64_t>& clock,
                             const std::string& id,
                             std::uint64_t lease_ms = 1000) {
  ServiceOptions opt;
  opt.policy = ExecutionPolicy::serial();
  opt.lease_ms = lease_ms;
  opt.takeover_grace_ms = 100;
  opt.drain_id = id;
  opt.now_ms = [clock] { return *clock; };
  return opt;
}

/// A drain that died mid-publish: submits `job`, takes its lease as owner
/// "dead" (never renewed or released — the returned lock must outlive the
/// test's checks), journals every replicate, and publishes through a
/// standalone store whose commit hook cuts the publish after `stage`.
std::optional<LeaseLock> die_mid_publish(
    const std::string& dir, const JobSpec& job,
    const std::shared_ptr<std::uint64_t>& clock,
    ResultsStore::CommitStage stage) {
  ExperimentService submitter(dir, drain_options(clock, "submitter"));
  submitter.submit(job);
  LeaseManager::Options opt;
  opt.owner = "dead";
  opt.lease_ms = 1000;
  opt.takeover_grace_ms = 100;
  opt.now_ms = [clock] { return *clock; };
  LeaseManager dead(dir, opt);
  const std::string resource =
      ExperimentService::job_resource(job.content_hash());
  std::optional<LeaseLock> lease = dead.try_acquire(resource);
  if (!lease.has_value()) return lease;

  const std::vector<ReplicateResult> replicates =
      run_replicates(scenario_factory(job.scenario, job.config),
                     job.repetitions, job.base_seed, 1);
  {
    ExperimentJournal journal(submitter.journal_path(job));
    for (std::size_t i = 0; i < replicates.size(); ++i) {
      journal.append(replicate_seed(job.base_seed, i), replicates[i]);
    }
  }
  struct Cut {};
  ResultsStore store(dir);
  store.set_commit_hook([stage](ResultsStore::CommitStage s) {
    if (s == stage) throw Cut{};
  });
  const Fencing fencing{&dead, resource, lease->token()};
  EXPECT_THROW(store.publish(job, replicates, &fencing), Cut);
  return lease;
}

TEST(MultiDrain, SiblingSkipsClaimedJobAndDrainsTheRest) {
  const std::string dir = fresh_dir("split");
  const auto clock = std::make_shared<std::uint64_t>(0);

  ExperimentService b(dir, drain_options(clock, "drain-b"));
  bool fired = false;
  ServiceOptions a_opt = drain_options(clock, "drain-a");
  // While A sits between replicate completion and publish of its first
  // claimed job, B drains everything else.  B must skip A's job — it is
  // leased — and must not double-execute anything.
  a_opt.on_job_will_publish = [&](const JobSpec&) {
    if (fired) return;
    fired = true;
    const ServiceReport inner = b.run_pending();
    EXPECT_EQ(inner.executed_jobs, 2u);
    EXPECT_EQ(inner.skipped_claimed, 1u) << "A's leased job must be skipped";
    EXPECT_EQ(inner.stale_leases, 0u);
  };
  ExperimentService a(dir, a_opt);

  const std::vector<JobSpec> jobs = {tiny_spec(1), tiny_spec(50),
                                     tiny_spec(90)};
  for (const JobSpec& j : jobs) a.submit(j);

  const ServiceReport report = a.run_pending();
  EXPECT_TRUE(fired);
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_EQ(report.stale_leases, 0u);
  EXPECT_EQ(a.pending(), 0u);

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.total_publishes, jobs.size());
  for (const JobSpec& j : jobs) {
    EXPECT_EQ(ledger.jobs.at(j.content_hash()).publishes, 1u)
        << "job " << j.hash_hex() << " published more than once";
    EXPECT_EQ(query_digest(*a.store().load(j)), clean_digest(j))
        << "interleaved drains changed job " << j.hash_hex();
  }
}

TEST(MultiDrain, ZombieIsFencedAndSuccessorResumesFromItsJournal) {
  const std::string dir = fresh_dir("zombie");
  const auto clock = std::make_shared<std::uint64_t>(0);
  const JobSpec job = tiny_spec(7, 3);

  LeaseManager::Options thief_opt;
  thief_opt.owner = "thief";
  thief_opt.takeover_grace_ms = 100;
  thief_opt.now_ms = [clock] { return *clock; };
  LeaseManager thief(dir, thief_opt);
  std::optional<LeaseLock> stolen;

  ServiceOptions a_opt = drain_options(clock, "drain-a");
  a_opt.on_job_will_publish = [&](const JobSpec& j) {
    if (stolen.has_value()) return;
    // A pauses (SIGSTOP, swap storm...) with replicates done but the
    // publish not started.  Its lease expires and a contender takes the
    // job over — from here A is a zombie and its publish must be fenced.
    // The thief *keeps* the lease, so A's retry pass sees a live foreign
    // lease and leaves the job alone instead of reclaiming it.
    *clock += 5000;
    stolen =
        thief.try_acquire(ExperimentService::job_resource(j.content_hash()));
    ASSERT_TRUE(stolen.has_value()) << "expired lease must be takeable";
  };
  ExperimentService a(dir, a_opt);
  a.submit(job);

  const ServiceReport zombie = a.run_pending();
  EXPECT_EQ(zombie.stale_leases, 1u);
  EXPECT_EQ(zombie.executed_jobs, 0u);
  EXPECT_EQ(zombie.skipped_claimed, 1u)
      << "the job now belongs to the thief and must be skipped";
  EXPECT_FALSE(zombie.cancelled);
  EXPECT_EQ(a.pending(), 1u) << "the fenced job must stay pending";
  EXPECT_FALSE(a.store().contains(job));
  EXPECT_TRUE(std::filesystem::exists(a.journal_path(job)))
      << "the zombie's journal is the successor's resume point";

  // The thief dies without doing anything; its lease release frees the
  // job.  A successor drains it — and every replicate must come from the
  // zombie's journal, not from re-execution.
  stolen->release();
  ExperimentService b(dir, drain_options(clock, "drain-b"));
  const ServiceReport resumed = b.run_pending();
  EXPECT_EQ(resumed.executed_jobs, 1u);
  EXPECT_EQ(resumed.resumed_replicates, job.repetitions);
  EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).stales, 1u);
}

TEST(MultiDrain, TakeoverAtEveryCommitStageBoundaryPublishesExactlyOnce) {
  // The in-process analogue of kill -9 after the segment stage, with a
  // live contender instead of a restart: A writes its segment, is taken
  // over, B fully executes the job, A resumes and must be fenced at the
  // index stage.  The store ends with exactly one published result,
  // byte-identical to a clean run.  (Past the index stage the job is
  // stored, and a contender acknowledges it instead: see
  // LatePublisherAfterIndexStageStillCommitsOnce.)
  const std::string dir = fresh_dir("stage-segment");
  const auto clock = std::make_shared<std::uint64_t>(0);
  const JobSpec job = tiny_spec(11, 2);

  ExperimentService b(dir, drain_options(clock, "drain-b"));
  ExperimentService a(dir, drain_options(clock, "drain-a"));
  bool fired = false;
  ServiceReport b_report;
  a.store().set_commit_hook([&](ResultsStore::CommitStage s) {
    if (s != ResultsStore::CommitStage::kSegmentWritten || fired) return;
    fired = true;
    *clock += 5000;  // expire A's lease…
    b_report = b.run_pending();  // …and let B take the job end-to-end
  });
  a.submit(job);

  const ServiceReport a_report = a.run_pending();
  ASSERT_TRUE(fired);
  EXPECT_EQ(b_report.executed_jobs, 1u);
  EXPECT_EQ(b_report.resumed_replicates, job.repetitions)
      << "B must resume from A's journal, not re-execute";
  EXPECT_EQ(a_report.stale_leases, 1u)
      << "A must be fenced at the index stage";
  EXPECT_EQ(a_report.executed_jobs, 0u);

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
  EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));

  // A is healthy afterwards: its reopened store serves the result.
  EXPECT_TRUE(a.store().contains(job));
}

TEST(MultiDrain, DeathAfterTheSegmentRepublishesFromTheJournal) {
  // A drain died between the segment and the index stage: the segment is
  // on disk but unindexed, so the job is still pending and unstored.  The
  // drain that wins its lease once it expires re-publishes from the
  // journal — nothing is simulated again — and cleans up after the dead.
  const std::string dir = fresh_dir("death-segment");
  const auto clock = std::make_shared<std::uint64_t>(0);
  const JobSpec job = tiny_spec(19, 3);
  const std::optional<LeaseLock> dead = die_mid_publish(
      dir, job, clock, ResultsStore::CommitStage::kSegmentWritten);
  ASSERT_TRUE(dead.has_value());

  *clock += 5000;
  ExperimentService b(dir, drain_options(clock, "drain-b"));
  EXPECT_FALSE(b.store().contains(job)) << "an unindexed segment is a miss";
  const ServiceReport report = b.run_pending();
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.resumed_replicates, job.repetitions)
      << "every replicate must come from the dead drain's journal";
  EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));
  EXPECT_EQ(read_execution_ledger(dir).jobs.at(job.content_hash()).publishes,
            1u);
  EXPECT_FALSE(std::filesystem::exists(b.journal_path(job)));
  EXPECT_TRUE(b.leases().list().empty()) << "no lease may outlive the job";
}

TEST(MultiDrain, DeathAfterTheIndexIsAcknowledgedByTheLeaseWinner) {
  // A drain died right after its index stage: the job is stored but still
  // pending, and the dead drain's journal and lease are still on disk.
  // While that lease is live the job is its holder's; once it expires,
  // the drain that wins it acknowledges the job and cleans up.
  const std::string dir = fresh_dir("death-index");
  const auto clock = std::make_shared<std::uint64_t>(0);
  const JobSpec job = tiny_spec(23, 3);
  const std::optional<LeaseLock> dead = die_mid_publish(
      dir, job, clock, ResultsStore::CommitStage::kIndexPublished);
  ASSERT_TRUE(dead.has_value());

  ExperimentService b(dir, drain_options(clock, "drain-b"));
  EXPECT_TRUE(b.store().contains(job));
  const ServiceReport early = b.run_pending();
  EXPECT_EQ(early.cache_hits, 0u);
  EXPECT_EQ(early.skipped_claimed, 1u)
      << "a stored job whose lease is live belongs to its holder";
  EXPECT_EQ(b.pending(), 1u);

  *clock += 5000;
  const ServiceReport late = b.run_pending();
  EXPECT_EQ(late.cache_hits, 1u);
  EXPECT_EQ(late.executed_jobs, 0u);
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));
  EXPECT_FALSE(std::filesystem::exists(b.journal_path(job)));
  EXPECT_TRUE(b.leases().list().empty()) << "no lease may outlive the job";
}

TEST(MultiDrain, LatePublisherAfterIndexStageStillCommitsOnce) {
  // Past the index stage the result is already served; a sibling that
  // wins A's expired lease acknowledges it as a cache hit, and A — never
  // fenced, since no stage follows the index — finishes normally.  One
  // publish, one result.
  const std::string dir = fresh_dir("index-stage");
  const auto clock = std::make_shared<std::uint64_t>(0);
  const JobSpec job = tiny_spec(13, 2);

  ExperimentService b(dir, drain_options(clock, "drain-b"));
  ExperimentService a(dir, drain_options(clock, "drain-a"));
  bool fired = false;
  ServiceReport b_report;
  a.store().set_commit_hook([&](ResultsStore::CommitStage s) {
    if (s != ResultsStore::CommitStage::kIndexPublished || fired) return;
    fired = true;
    *clock += 5000;
    b_report = b.run_pending();
  });
  a.submit(job);

  const ServiceReport a_report = a.run_pending();
  ASSERT_TRUE(fired);
  EXPECT_EQ(b_report.executed_jobs, 0u);
  EXPECT_EQ(b_report.cache_hits, 1u)
      << "past the index stage the job is served, not re-claimed";
  EXPECT_EQ(a_report.executed_jobs, 1u);
  EXPECT_EQ(a_report.stale_leases, 0u);

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
  EXPECT_EQ(query_digest(*a.store().load(job)), clean_digest(job));
}

TEST(MultiDrain, WritableQueueIsSingleWriter) {
  const std::string dir = fresh_dir("single-writer");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/queue.hjq";

  JobQueue first(path, 8);  // exclusive by default
  EXPECT_THROW(JobQueue(path, 8), ConcurrentWriterError);
  // Read-only observers are never refused (and never block).
  const JobQueue observer(path, 8, FramedLog::Access::kReadOnly);
  EXPECT_EQ(observer.pending(), 0u);
}

TEST(MultiDrain, HeldJournalIsSkippedAndResumedOnceReleased) {
  // A drain stopped mid-simulation still holds its job's journal after a
  // successor took its lease over.  The successor must leave the job to
  // it — not spin on the journal lock, not write beside it — and a later
  // drain, once the journal is free, must resume every replicate it
  // holds.
  const std::string dir = fresh_dir("held-journal");
  const auto clock = std::make_shared<std::uint64_t>(0);
  const JobSpec job = tiny_spec(17, 3);

  ExperimentService a(dir, drain_options(clock, "drain-a"));
  a.submit(job);
  std::size_t held_records = 0;
  {
    ExperimentJournal held(a.journal_path(job));
    held.append(job.base_seed,
                run_replicates(scenario_factory(job.scenario, job.config), 1,
                               job.base_seed, 1)[0]);
    held_records = held.size();

    const ServiceReport skipped = a.run_pending();
    EXPECT_EQ(skipped.executed_jobs, 0u);
    EXPECT_EQ(skipped.skipped_claimed, 1u);
    EXPECT_EQ(skipped.deferred_jobs, 0u);
    EXPECT_FALSE(std::filesystem::exists(a.leases().lease_path(
        ExperimentService::job_resource(job.content_hash()))))
        << "the lease must be released for the journal's holder";
    EXPECT_EQ(a.pending(), 1u);
  }

  const ServiceReport resumed = a.run_pending();
  EXPECT_EQ(resumed.executed_jobs, 1u);
  EXPECT_EQ(resumed.resumed_replicates, held_records);
  EXPECT_EQ(query_digest(*a.store().load(job)), clean_digest(job));
  EXPECT_EQ(read_execution_ledger(dir).jobs.at(job.content_hash()).publishes,
            1u);
}

}  // namespace
}  // namespace hinet
