// Multi-process drain torture, run deterministically in-process: two
// ExperimentService instances share one directory and one fake clock, and
// test hooks interleave them at the exact boundaries that matter — while
// a job is claimed, between replicate completion and publish, and after
// each staged-commit boundary.  The invariants under torture:
//
//   * every submitted job ends up stored exactly once (ledger publishes
//     == 1 per hash, no matter who won);
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
  // The in-process analogue of kill -9 at each staged-commit boundary,
  // with a live contender instead of a restart: A passes stage S, is
  // taken over, B fully executes the job, A resumes and must be fenced at
  // its next stage.  Regardless of S, the store ends with exactly one
  // published result, byte-identical to a clean run.
  const ResultsStore::CommitStage stages[] = {
      ResultsStore::CommitStage::kIntentLogged,
      ResultsStore::CommitStage::kSegmentWritten,
  };
  for (const ResultsStore::CommitStage stage : stages) {
    const std::string dir =
        fresh_dir("stage" + std::to_string(static_cast<int>(stage)));
    const auto clock = std::make_shared<std::uint64_t>(0);
    const JobSpec job = tiny_spec(11, 2);

    ExperimentService b(dir, drain_options(clock, "drain-b"));
    ExperimentService a(dir, drain_options(clock, "drain-a"));
    bool fired = false;
    ServiceReport b_report;
    a.store().set_commit_hook([&](ResultsStore::CommitStage s) {
      if (s != stage || fired) return;
      fired = true;
      *clock += 5000;  // expire A's lease…
      b_report = b.run_pending();  // …and let B take the job end-to-end
    });
    a.submit(job);

    const ServiceReport a_report = a.run_pending();
    ASSERT_TRUE(fired);
    EXPECT_EQ(b_report.executed_jobs, 1u)
        << "stage " << static_cast<int>(stage);
    EXPECT_EQ(b_report.resumed_replicates, job.repetitions)
        << "B must resume from A's journal, not re-execute";
    EXPECT_EQ(a_report.stale_leases, 1u)
        << "A must be fenced after stage " << static_cast<int>(stage);
    EXPECT_EQ(a_report.executed_jobs, 0u);

    const ExecutionLedger ledger = read_execution_ledger(dir);
    EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
    EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));

    // A is healthy afterwards: its reopened store serves the result.
    EXPECT_TRUE(a.store().contains(job));
  }
}

TEST(MultiDrain, LatePublisherAfterIndexStageStillCommitsOnce) {
  // Past the index stage the result is already served; a sibling sees a
  // cache hit instead of taking the lease over, and A — never fenced —
  // finishes its commit normally.  One publish, one result.
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
