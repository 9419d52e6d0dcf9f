// ExperimentJournal: durable record/replay of completed replicates, and
// the headline guarantee it exists for — a killed sweep, resumed against
// its journal, aggregates byte-identically to a sweep that was never
// killed, at any worker count.  Plus the journal-specific corruption fuzz
// and the fuzz of the metric codec that journal records and store
// segments share; every mutation must produce a typed exception or a
// clean salvage, never UB (the sanitizer CI runs this suite under the
// robustness label).
#include "analysis/journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "analysis/scenarios.hpp"
#include "analysis/supervisor.hpp"
#include "service/exit_codes.hpp"
#include "sim/engine.hpp"
#include "util/framed_log.hpp"

namespace hinet {
namespace {

ScenarioConfig tiny_config() {
  ScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.heads = 4;
  cfg.k = 3;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  return cfg;
}

SpecFactory tiny_factory() {
  return scenario_factory(Scenario::kHiNetOne, tiny_config());
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Fresh temp path per test; the previous incarnation is removed so a
/// journal constructor always starts from scratch.
std::string journal_path(const char* tag) {
  const std::string p = ::testing::TempDir() + "hinet_journal_" + tag + ".jnl";
  std::remove(p.c_str());
  return p;
}

ReplicateResult run_one(std::uint64_t seed) {
  ReplicateResult r;
  r.metrics = run_simulation(tiny_factory()(seed));
  r.wall_ms = 1.5;
  return r;
}

TEST(ExperimentJournal, AppendLookupRoundTrip) {
  const std::string path = journal_path("roundtrip");
  ExperimentJournal j(path);
  EXPECT_TRUE(j.empty());
  EXPECT_FALSE(j.contains(7));
  EXPECT_FALSE(j.lookup(7).has_value());

  const ReplicateResult r7 = run_one(7);
  const ReplicateResult r9 = run_one(9);
  j.append(7, r7);
  j.append(9, r9);

  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.contains(7));
  EXPECT_TRUE(j.contains(9));
  EXPECT_FALSE(j.contains(8));
  ASSERT_TRUE(j.lookup(7).has_value());
  EXPECT_EQ(j.lookup(7)->metrics, r7.metrics);
  EXPECT_DOUBLE_EQ(j.lookup(7)->wall_ms, r7.wall_ms);
  ASSERT_TRUE(j.lookup(9).has_value());
  EXPECT_EQ(j.lookup(9)->metrics, r9.metrics);
  EXPECT_EQ(j.dropped_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, ReopenReplaysEveryRecord) {
  const std::string path = journal_path("reopen");
  const ReplicateResult r1 = run_one(1);
  const ReplicateResult r2 = run_one(2);
  {
    ExperimentJournal j(path);
    j.append(1, r1);
    j.append(2, r2);
  }
  {
    ExperimentJournal j(path);
    EXPECT_EQ(j.size(), 2u);
    EXPECT_EQ(j.dropped_bytes(), 0u);
    ASSERT_TRUE(j.lookup(1).has_value());
    EXPECT_EQ(j.lookup(1)->metrics, r1.metrics);
    ASSERT_TRUE(j.lookup(2).has_value());
    EXPECT_EQ(j.lookup(2)->metrics, r2.metrics);

    // And it stays appendable after a replay.
    j.append(3, run_one(3));
  }
  ExperimentJournal again(path);
  EXPECT_EQ(again.size(), 3u);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, OnDiskLayoutIsPinned) {
  // Journals written by earlier builds must keep resuming: the bytes of a
  // journal holding one record are pinned against a hand-assembled file.
  const std::string path = journal_path("layout");
  const ReplicateResult r = run_one(7);
  {
    ExperimentJournal j(path);
    j.append(7, r);
  }
  ByteWriter payload;
  payload.u64(7);
  payload.f64(r.wall_ms);
  save_metrics(payload, r.metrics);
  const std::uint64_t len = payload.size();
  const std::uint32_t crc = crc32(payload.buffer());

  std::vector<std::uint8_t> expected = {'H', 'J', 'N', 'L', 1, 0, 0, 0,
                                        'H', 'J', 'R', 'D'};
  for (int i = 0; i < 8; ++i) {
    expected.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  for (int i = 0; i < 4; ++i) {
    expected.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  expected.insert(expected.end(), payload.buffer().begin(),
                  payload.buffer().end());
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, SecondWriterOnALivePathIsRefused) {
  // Two handles appending to one journal would overwrite each other's
  // acknowledged records; the second open is refused instead, with the
  // error sweep_runner maps to the transient exit code.
  const std::string path = journal_path("two_writers");
  {
    ExperimentJournal first(path);
    first.append(2, run_one(2));
    try {
      const ExperimentJournal second(path);
      FAIL() << "a second writer must be refused while the first is open";
    } catch (const ConcurrentWriterError& e) {
      EXPECT_EQ(exit_code_for_exception(e), kExitTransient);
    }
    first.append(3, run_one(3));
  }
  const ExperimentJournal reopened(path);
  EXPECT_EQ(reopened.seeds(), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(reopened.dropped_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, UndecodableRecordIsCorruptionNotATornTail) {
  // A record whose CRC matches cannot be a torn write, so a payload that
  // does not decode is a format mismatch: refuse it (exit 4) and leave
  // the file untouched instead of truncating good data away.
  const std::string path = journal_path("undecodable");
  {
    ExperimentJournal j(path);
    j.append(1, run_one(1));
  }
  {
    FramedLog log(path, ExperimentJournal::kMagic,
                  ExperimentJournal::kVersion,
                  ExperimentJournal::kRecordMagic, "test log");
    const std::vector<std::uint8_t> garbage = {1, 2, 3};
    log.append(garbage);
  }
  const std::vector<std::uint8_t> before = read_file(path);
  try {
    const ExperimentJournal j(path);
    FAIL() << "an undecodable CRC-valid record must be refused";
  } catch (const ConcurrentWriterError&) {
    FAIL() << "not a contention error";
  } catch (const IoError& e) {
    EXPECT_EQ(exit_code_for_exception(e), kExitCorruptState);
  }
  EXPECT_EQ(read_file(path), before);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, DuplicateSeedIsRejected) {
  const std::string path = journal_path("dup");
  ExperimentJournal j(path);
  j.append(4, run_one(4));
  EXPECT_THROW(j.append(4, run_one(4)), PreconditionError);
  EXPECT_EQ(j.size(), 1u);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, KilledSweepResumesByteIdenticallyAtAnyJobCount) {
  // The acceptance-criterion test: run the sweep clean; then run it again
  // journaled but cancelled after 3 fresh completions (the graceful twin
  // of sweep_runner's --abort-after SIGKILL lever, which the CI smoke
  // exercises); then resume from the journal.  The resumed aggregate must
  // match the clean one on every statistic and on the digest, for every
  // worker count.
  const std::size_t reps = 10;
  const std::uint64_t base_seed = 21;
  const SpecFactory factory = tiny_factory();

  const AggregateResult clean = run_experiment(
      factory, ExperimentOptions{reps, base_seed, ExecutionPolicy::serial()});

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const std::string path =
        journal_path(("resume_j" + std::to_string(jobs)).c_str());

    {
      ExperimentJournal journal(path);
      std::atomic<bool> cancel{false};
      std::atomic<std::size_t> fresh{0};
      SupervisorPolicy policy;
      policy.journal = &journal;
      policy.cancel = &cancel;
      policy.on_progress = [&](std::size_t, std::uint64_t) {
        if (fresh.fetch_add(1) + 1 >= 3) cancel.store(true);
      };
      const SupervisedBatch partial = run_replicates_supervised(
          factory,
          ExperimentOptions{reps, base_seed, ExecutionPolicy::threaded(jobs)},
          policy);
      EXPECT_TRUE(partial.cancelled);
      EXPECT_LT(partial.completed(), reps);
      EXPECT_GE(journal.size(), 3u);
      EXPECT_LT(journal.size(), reps);
    }

    ExperimentJournal journal(path);
    SupervisorPolicy policy;
    policy.journal = &journal;
    const std::size_t already = journal.size();
    const SupervisedBatch resumed = run_replicates_supervised(
        factory,
        ExperimentOptions{reps, base_seed, ExecutionPolicy::threaded(jobs)},
        policy);
    EXPECT_EQ(resumed.completed(), reps);
    EXPECT_EQ(resumed.from_journal, already);
    EXPECT_TRUE(resumed.failures.empty());
    EXPECT_FALSE(resumed.cancelled);
    EXPECT_EQ(journal.size(), reps);

    const AggregateResult agg = aggregate_supervised(resumed, 1.0, jobs);
    EXPECT_TRUE(agg.same_statistics(clean));
    EXPECT_EQ(agg.stats_digest(), clean.stats_digest());
    std::remove(path.c_str());
  }
}

TEST(ExperimentJournal, ResultsFromTheJournalAreTheResultsThatRan) {
  // from_journal replicates must be bit-equal to freshly executed ones —
  // the journal is a cache, not an approximation.
  const std::string path = journal_path("bitexact");
  const SpecFactory factory = tiny_factory();
  {
    ExperimentJournal journal(path);
    SupervisorPolicy policy;
    policy.journal = &journal;
    run_replicates_supervised(
        factory, ExperimentOptions{4, 50, ExecutionPolicy::serial()}, policy);
  }
  ExperimentJournal journal(path);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    const std::uint64_t seed = replicate_seed(50, rep);
    ASSERT_TRUE(journal.contains(seed));
    EXPECT_EQ(journal.lookup(seed)->metrics,
              run_simulation(factory(seed)));
  }
  std::remove(path.c_str());
}

// The journal's framing (torn tails, monotone salvage, foreign headers,
// writer locks) is fuzzed once, in tests/util/test_framed_log.cpp; what is
// journal-specific is that every record it salvages decodes to the
// replicate that was appended.

/// Journals three real replicates, seeds 1..3, in a fresh file at `path`.
std::vector<ReplicateResult> write_journal(const std::string& path) {
  std::vector<ReplicateResult> results;
  ExperimentJournal j(path);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    results.push_back(run_one(seed));
    j.append(seed, results.back());
  }
  return results;
}

/// Reopens a mutated journal: it holds a prefix of seeds 1..3, each
/// decoding to the replicate that was appended.
void expect_salvaged_prefix(const std::string& path,
                            const std::vector<ReplicateResult>& results,
                            const std::string& where) {
  const ExperimentJournal j(path);
  const std::vector<std::uint64_t> seeds = j.seeds();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(seeds[i], i + 1) << where;
    const auto got = j.lookup(seeds[i]);
    ASSERT_TRUE(got.has_value()) << where;
    EXPECT_EQ(got->metrics, results[i].metrics) << where << " seed " << i + 1;
    EXPECT_DOUBLE_EQ(got->wall_ms, results[i].wall_ms) << where;
  }
}

TEST(JournalFuzz, EveryCorruptionBeyondTheHeaderSalvagesAPrefix) {
  const std::string path = journal_path("journal_flip");
  const std::vector<ReplicateResult> results = write_journal(path);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GT(good.size(), 8u);

  for (std::size_t i = 8; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    write_file(path, bad);
    expect_salvaged_prefix(path, results, "byte " + std::to_string(i));
  }
  std::remove(path.c_str());
}

TEST(JournalFuzz, EveryTruncationBeyondTheHeaderSalvagesAPrefix) {
  const std::string path = journal_path("journal_trunc");
  const std::vector<ReplicateResult> results = write_journal(path);
  const std::vector<std::uint8_t> good = read_file(path);

  for (std::size_t len = 8; len < good.size(); ++len) {
    write_file(path, {good.begin(),
                      good.begin() + static_cast<std::ptrdiff_t>(len)});
    expect_salvaged_prefix(path, results, "length " + std::to_string(len));
  }
  std::remove(path.c_str());
}

// The metric codec attacked directly, below the CRC that guards it on
// disk: a CRC-valid record that does not decode must still be a typed
// error, and a flip the codec cannot detect must still decode safely.

std::vector<std::uint8_t> metric_payload(const SimMetrics& m) {
  ByteWriter w;
  save_metrics(w, m);
  return w.take();
}

TEST(MetricCodecFuzz, EveryPayloadTruncationIsAnIoError) {
  const SimMetrics metrics = run_one(5).metrics;
  const std::vector<std::uint8_t> good = metric_payload(metrics);
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::span<const std::uint8_t> cut(good.data(), len);
    ByteReader r(cut, "metrics");
    EXPECT_THROW(load_metrics(r), IoError) << "payload cut to " << len;
  }
  ByteReader r(good, "metrics");
  EXPECT_EQ(load_metrics(r), metrics);
  EXPECT_TRUE(r.done());
}

TEST(MetricCodecFuzz, EveryBitFlipThrowsTypedOrDecodes) {
  // A flip in a counter decodes to a different record, which only the
  // CRC around it can catch; a flip in a vector length must be refused
  // before it sizes anything.  Any other exception escapes and fails.
  const std::vector<std::uint8_t> good = metric_payload(run_one(5).metrics);
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ByteReader r(bad, "metrics");
    try {
      (void)load_metrics(r);
    } catch (const IoError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace hinet
