// Multi-process drain torture, run deterministically in-process: two
// ExperimentService instances share one directory, and test hooks
// interleave them at the exact boundaries that matter — while a job is
// claimed, between replicate completion and publish, and after each of
// the two commit stages.  A job's claim is its journal's flock, which
// two handles in one process contend for exactly as two processes do;
// an exception thrown from a hook out of run_pending() unwinds the
// claimed journal, as the kernel drops the lock of a killed drain.
// The invariants under torture:
//
//   * every submitted job ends up stored exactly once (ledger publishes
//     == 1 per hash, no matter who won);
//   * a drain that died mid-publish is finished at once by the next
//     drain that wins its journal: re-published from its journal after
//     the segment stage, acknowledged after the index stage, and no
//     journal of the dead drain survives;
//   * a live holder keeps its job at every point of its publish, and the
//     stored result is byte-identical (query_digest) to an uninterrupted
//     single-drain run;
//   * a writable queue or journal is single-writer
//     (ConcurrentWriterError), while read-only observers are never
//     blocked;
//   * a job whose journal another writer still holds is skipped, not
//     spun on, and resumes from that journal once it is free.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/journal.hpp"
#include "analysis/scenarios.hpp"
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

ServiceOptions serial_drain(const std::string& id) {
  ServiceOptions opt;
  opt.policy = ExecutionPolicy::serial();
  opt.drain_id = id;
  return opt;
}

std::size_t files_in(const std::string& dir, const std::string& extension) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == extension) ++n;
  }
  return n;
}

/// A drain that died mid-publish: submits `job`, holds its journal while
/// it journals every replicate and publishes through a store whose commit
/// hook cuts the publish after `stage`.  Returning drops the journal lock,
/// as the kernel does when the holder dies.
void die_mid_publish(const std::string& dir, const JobSpec& job,
                     ResultsStore::CommitStage stage) {
  ExperimentService submitter(dir, serial_drain("submitter"));
  submitter.submit(job);
  const std::vector<ReplicateResult> replicates =
      run_replicates(scenario_factory(job.scenario, job.config),
                     job.repetitions, job.base_seed, 1);
  ExperimentJournal journal(submitter.journal_path(job));
  for (std::size_t i = 0; i < replicates.size(); ++i) {
    journal.append(replicate_seed(job.base_seed, i), replicates[i]);
  }
  struct Cut {};
  ResultsStore store(dir);
  store.set_commit_hook([stage](ResultsStore::CommitStage s) {
    if (s == stage) throw Cut{};
  });
  EXPECT_THROW(store.publish(job, replicates), Cut);
}

TEST(MultiDrain, SiblingSkipsClaimedJobAndDrainsTheRest) {
  const std::string dir = fresh_dir("split");

  ExperimentService b(dir, serial_drain("drain-b"));
  bool fired = false;
  ServiceOptions a_opt = serial_drain("drain-a");
  // While A sits between replicate completion and publish of its first
  // claimed job, B drains everything else.  B must skip A's job — A
  // holds its journal — and must not double-execute anything.
  a_opt.on_job_will_publish = [&](const JobSpec&) {
    if (fired) return;
    fired = true;
    const ServiceReport inner = b.run_pending();
    EXPECT_EQ(inner.executed_jobs, 2u);
    EXPECT_EQ(inner.skipped_claimed, 1u) << "A's held job must be skipped";
  };
  ExperimentService a(dir, a_opt);

  const std::vector<JobSpec> jobs = {tiny_spec(1), tiny_spec(50),
                                     tiny_spec(90)};
  for (const JobSpec& j : jobs) a.submit(j);

  const ServiceReport report = a.run_pending();
  EXPECT_TRUE(fired);
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_EQ(report.skipped_claimed, 0u);
  EXPECT_EQ(a.pending(), 0u);

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.total_publishes, jobs.size());
  for (const JobSpec& j : jobs) {
    EXPECT_EQ(ledger.jobs.at(j.content_hash()).publishes, 1u)
        << "job " << j.hash_hex() << " published more than once";
    EXPECT_EQ(query_digest(*a.store().load(j)), clean_digest(j))
        << "interleaved drains changed job " << j.hash_hex();
  }
  EXPECT_EQ(ledger.jobs.at(jobs[0].content_hash()).claimed_by, "drain-a");
  EXPECT_EQ(ledger.jobs.at(jobs[1].content_hash()).claimed_by, "drain-b");
}

TEST(MultiDrain, DeadDrainsJobIsClaimableAtOnce) {
  // Two drains died mid-publish, each after journaling every replicate:
  // one right after its segment stage (the job is still unstored), one
  // right after its index stage (the job is stored but still pending).
  // Their journal locks died with them, so the next drain finishes both
  // at once: it re-publishes the first from its journal, simulating
  // nothing, and acknowledges the second.
  const std::string dir = fresh_dir("dead");
  const JobSpec cut_segment = tiny_spec(19, 3);
  const JobSpec cut_index = tiny_spec(23, 3);
  die_mid_publish(dir, cut_segment, ResultsStore::CommitStage::kSegmentWritten);
  die_mid_publish(dir, cut_index, ResultsStore::CommitStage::kIndexPublished);
  ASSERT_EQ(files_in(dir, ".journal"), 2u);

  ExperimentService b(dir, serial_drain("drain-b"));
  EXPECT_FALSE(b.store().contains(cut_segment))
      << "an unindexed segment is a miss";
  EXPECT_TRUE(b.store().contains(cut_index));
  EXPECT_EQ(b.pending(), 2u);
  const ServiceReport report = b.run_pending();
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_EQ(report.resumed_replicates, cut_segment.repetitions)
      << "every replicate must come from the dead drain's journal";
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.skipped_claimed, 0u);
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_EQ(files_in(dir, ".journal"), 0u) << "no journal may outlive its job";

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.jobs.at(cut_segment.content_hash()).publishes, 1u);
  EXPECT_EQ(ledger.jobs.count(cut_index.content_hash()), 0u)
      << "an acknowledged job is neither claimed nor re-published";
  for (const JobSpec& j : {cut_segment, cut_index}) {
    EXPECT_EQ(query_digest(*b.store().load(j)), clean_digest(j));
  }
}

TEST(MultiDrain, PausedHolderKeepsItsJob) {
  // A live holder is parked before its publish and after each of the two
  // commit stages.  At every point it still holds the job's journal, so
  // a sibling's drain leaves the job alone — stored or not — and A
  // finishes it: one publish, the clean result.
  const std::string dir = fresh_dir("paused");
  const JobSpec job = tiny_spec(11, 2);

  ExperimentService b(dir, serial_drain("drain-b"));
  std::vector<std::string> points;
  const auto sibling_drains = [&](const std::string& point) {
    points.push_back(point);
    const ServiceReport r = b.run_pending();
    EXPECT_EQ(r.skipped_claimed, 1u) << point;
    EXPECT_EQ(r.executed_jobs, 0u) << point;
    EXPECT_EQ(r.cache_hits, 0u) << point;
    EXPECT_EQ(r.resumed_replicates, 0u) << point;
  };
  ServiceOptions a_opt = serial_drain("drain-a");
  a_opt.on_job_will_publish = [&](const JobSpec&) {
    sibling_drains("will-publish");
  };
  ExperimentService a(dir, a_opt);
  a.store().set_commit_hook([&](ResultsStore::CommitStage s) {
    sibling_drains(s == ResultsStore::CommitStage::kSegmentWritten
                       ? "segment"
                       : "index");
  });
  a.submit(job);

  const ServiceReport a_report = a.run_pending();
  EXPECT_EQ(points,
            (std::vector<std::string>{"will-publish", "segment", "index"}));
  EXPECT_EQ(a_report.executed_jobs, 1u);
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(files_in(dir, ".journal"), 0u);

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).claims, 1u);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
  EXPECT_EQ(query_digest(*a.store().load(job)), clean_digest(job));
}

TEST(MultiDrain, ZombieIsFencedAndSuccessorResumesFromItsJournal) {
  // A drain that stalls (SIGSTOP, swap storm...) with every replicate
  // journaled and its publish not started never turns into a zombie: its
  // claim lives exactly as long as it does, so the stall fences every
  // sibling out instead.  Killed there, it leaves the job pending and
  // unstored, and the successor resumes every replicate from its journal.
  const std::string dir = fresh_dir("zombie");
  const JobSpec job = tiny_spec(7, 3);

  ExperimentService b(dir, serial_drain("drain-b"));
  struct Killed {};
  ServiceOptions a_opt = serial_drain("drain-a");
  a_opt.on_job_will_publish = [&](const JobSpec&) {
    const ServiceReport stalled = b.run_pending();
    EXPECT_EQ(stalled.skipped_claimed, 1u) << "a stalled holder keeps its job";
    EXPECT_EQ(stalled.executed_jobs, 0u);
    EXPECT_EQ(stalled.cache_hits, 0u);
    throw Killed{};
  };
  ExperimentService a(dir, a_opt);
  a.submit(job);

  EXPECT_THROW(a.run_pending(), Killed);
  EXPECT_EQ(a.pending(), 1u) << "a killed holder's job stays pending";
  EXPECT_FALSE(a.store().contains(job));
  EXPECT_TRUE(std::filesystem::exists(a.journal_path(job)))
      << "the killed drain's journal is the successor's resume point";

  const ServiceReport resumed = b.run_pending();
  EXPECT_EQ(resumed.executed_jobs, 1u);
  EXPECT_EQ(resumed.skipped_claimed, 0u);
  EXPECT_EQ(resumed.resumed_replicates, job.repetitions);
  EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).claims, 2u);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).claimed_by, "drain-b");
}

TEST(MultiDrain, TakeoverAtEveryCommitStageBoundaryPublishesExactlyOnce) {
  // The in-process analogue of kill -9 at each commit stage boundary: A
  // claims the job, journals every replicate and is killed by its own
  // store's commit hook right after the segment stage, or right after the
  // index stage.  Its journal lock dies with it, so B takes the job over
  // on its very next drain — re-publishing from A's journal, or
  // acknowledging A's indexed result — and the store ends with exactly
  // one result, byte-identical to a clean run.  (After the index stage
  // the ledger misses A's publish record: ROADMAP item 8, defect (i).)
  const JobSpec job = tiny_spec(11, 2);
  const std::uint64_t clean = clean_digest(job);
  for (const ResultsStore::CommitStage stage :
       {ResultsStore::CommitStage::kSegmentWritten,
        ResultsStore::CommitStage::kIndexPublished}) {
    const bool indexed = stage == ResultsStore::CommitStage::kIndexPublished;
    SCOPED_TRACE(indexed ? "killed after the index stage"
                         : "killed after the segment stage");
    const std::string dir = fresh_dir(indexed ? "kill-index" : "kill-segment");

    struct Killed {};
    ExperimentService a(dir, serial_drain("drain-a"));
    a.store().set_commit_hook([stage](ResultsStore::CommitStage s) {
      if (s == stage) throw Killed{};
    });
    a.submit(job);
    EXPECT_THROW(a.run_pending(), Killed);

    ExperimentService b(dir, serial_drain("drain-b"));
    const ServiceReport took_over = b.run_pending();
    EXPECT_EQ(took_over.skipped_claimed, 0u)
        << "the killed drain's claim died with it";
    EXPECT_EQ(took_over.executed_jobs, indexed ? 0u : 1u);
    EXPECT_EQ(took_over.cache_hits, indexed ? 1u : 0u);
    EXPECT_EQ(took_over.resumed_replicates, indexed ? 0u : job.repetitions);
    EXPECT_EQ(b.pending(), 0u);
    EXPECT_EQ(files_in(dir, ".journal"), 0u);
    EXPECT_EQ(files_in(dir, ".hseg"), 1u) << "one segment for one job";
    EXPECT_EQ(b.store().size(), 1u);
    EXPECT_EQ(query_digest(*b.store().load(job)), clean);

    const ExecutionLedger ledger = read_execution_ledger(dir);
    EXPECT_EQ(ledger.jobs.at(job.content_hash()).claims, indexed ? 1u : 2u);
    if (!indexed) {
      EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
    }
  }
}

TEST(MultiDrain, DeathAfterTheSegmentRepublishesFromTheJournal) {
  // A drain died between the segment and the index stage: the segment is
  // on disk but unindexed, so the job is still pending and unstored.  The
  // next drain re-publishes from the journal — nothing is simulated again
  // — over the dead drain's segment, and cleans up after the dead.
  const std::string dir = fresh_dir("death-segment");
  const JobSpec job = tiny_spec(19, 3);
  die_mid_publish(dir, job, ResultsStore::CommitStage::kSegmentWritten);

  ExperimentService b(dir, serial_drain("drain-b"));
  ASSERT_TRUE(
      std::filesystem::exists(b.store().segment_path(job.content_hash())));
  EXPECT_FALSE(b.store().contains(job)) << "an unindexed segment is a miss";
  const ServiceReport report = b.run_pending();
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.resumed_replicates, job.repetitions)
      << "every replicate must come from the dead drain's journal";
  EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));
  EXPECT_EQ(read_execution_ledger(dir).jobs.at(job.content_hash()).publishes,
            1u);
  EXPECT_EQ(files_in(dir, ".journal"), 0u) << "no journal may outlive its job";
  EXPECT_EQ(files_in(dir, ".hseg"), 1u)
      << "the re-publish replaces the dead drain's segment";
}

TEST(MultiDrain, DeathAfterTheIndexIsAcknowledgedByTheLeaseWinner) {
  // A drain died right after its index stage: the job is stored but still
  // pending, and the dead drain's journal is still on disk.  Only the
  // drain that wins that journal acknowledges the job: while another
  // claimant holds it, a drain skips the job even though it is stored,
  // and once the journal is free the next drain acknowledges the job
  // without simulating and removes the journal.
  const std::string dir = fresh_dir("death-index");
  const JobSpec job = tiny_spec(23, 3);
  die_mid_publish(dir, job, ResultsStore::CommitStage::kIndexPublished);

  ExperimentService b(dir, serial_drain("drain-b"));
  EXPECT_TRUE(b.store().contains(job));
  {
    const ExperimentJournal winner(b.journal_path(job));
    const ServiceReport early = b.run_pending();
    EXPECT_EQ(early.cache_hits, 0u);
    EXPECT_EQ(early.skipped_claimed, 1u)
        << "a stored job whose journal is held belongs to its holder";
    EXPECT_EQ(b.pending(), 1u);
  }

  const ServiceReport late = b.run_pending();
  EXPECT_EQ(late.cache_hits, 1u);
  EXPECT_EQ(late.executed_jobs, 0u);
  EXPECT_EQ(late.resumed_replicates, 0u);
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_EQ(query_digest(*b.store().load(job)), clean_digest(job));
  EXPECT_EQ(files_in(dir, ".journal"), 0u) << "no journal may outlive its job";
}

TEST(MultiDrain, LatePublisherAfterIndexStageStillCommitsOnce) {
  // Past the index stage the result is already served to readers, but
  // the job is its publisher's until the publisher marks it done: a
  // sibling's drain skips it rather than acknowledging it, and A, paused
  // there and then resumed, finishes normally.  One claim, one publish,
  // one result.
  const std::string dir = fresh_dir("index-stage");
  const JobSpec job = tiny_spec(13, 2);
  const std::uint64_t clean = clean_digest(job);

  ExperimentService b(dir, serial_drain("drain-b"));
  ExperimentService a(dir, serial_drain("drain-a"));
  bool fired = false;
  ServiceReport b_report;
  a.store().set_commit_hook([&](ResultsStore::CommitStage s) {
    if (s != ResultsStore::CommitStage::kIndexPublished) return;
    fired = true;
    b.store().refresh();
    ASSERT_TRUE(b.store().contains(job)) << "the index stage is the commit";
    EXPECT_EQ(query_digest(*b.store().load(job)), clean);
    b_report = b.run_pending();
  });
  a.submit(job);

  const ServiceReport a_report = a.run_pending();
  ASSERT_TRUE(fired);
  EXPECT_EQ(b_report.skipped_claimed, 1u);
  EXPECT_EQ(b_report.cache_hits, 0u)
      << "a live publisher's job is not acknowledged by a sibling";
  EXPECT_EQ(b_report.executed_jobs, 0u);
  EXPECT_EQ(a_report.executed_jobs, 1u);
  EXPECT_EQ(a.pending(), 0u);

  const ExecutionLedger ledger = read_execution_ledger(dir);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).claims, 1u);
  EXPECT_EQ(ledger.jobs.at(job.content_hash()).publishes, 1u);
  EXPECT_EQ(query_digest(*a.store().load(job)), clean);
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

  // A job's journal, the claim on the job, refuses a second writer the
  // same way, and is free again once its holder closes it.
  const std::string journal = dir + "/job-0000000000000001.journal";
  {
    const ExperimentJournal holder(journal);
    EXPECT_THROW(ExperimentJournal{journal}, ConcurrentWriterError);
  }
  EXPECT_NO_THROW(ExperimentJournal{journal});
}

TEST(MultiDrain, HeldJournalIsSkippedAndResumedOnceReleased) {
  // A drain stopped mid-simulation still holds its job's journal.  A
  // sibling must leave the job to it — not spin on the journal lock, not
  // write beside it — and a later drain, once the journal is free, must
  // resume every replicate it holds.
  const std::string dir = fresh_dir("held-journal");
  const JobSpec job = tiny_spec(17, 3);

  ExperimentService a(dir, serial_drain("drain-a"));
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
    EXPECT_EQ(a.pending(), 1u);
    EXPECT_EQ(read_execution_ledger(dir).total_claims, 0u)
        << "a skipped job is not claimed";
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
