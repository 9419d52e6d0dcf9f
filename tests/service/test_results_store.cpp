// ResultsStore: publish/load round-trip, the two-stage commit protocol
// under fault injection, and handle poisoning.
//
// The central property is full-or-miss: a crash after either stage of
// publish() followed by a reopen must leave the store serving either the
// complete result (the index rename, the commit point, landed) or a clean
// miss (only the segment did), never a torn result.  The fault injector
// here throws from the commit hook at each boundary — the same states a
// kill -9 leaves behind, which the CI smoke exercises with a real _Exit
// through hinetd's --crash-at-stage lever.
#include "service/results_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/scenarios.hpp"
#include "service/service.hpp"
#include "util/require.hpp"

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

std::vector<ReplicateResult> run_replicates_for(const JobSpec& spec) {
  return run_replicates(scenario_factory(spec.scenario, spec.config),
                        spec.repetitions, spec.base_seed, 1);
}

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "hinet_store_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ResultsStore, PublishLoadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  const JobSpec spec = tiny_spec();
  const std::vector<ReplicateResult> reps = run_replicates_for(spec);

  ResultsStore store(dir);
  EXPECT_FALSE(store.contains(spec));
  store.publish(spec, reps);
  EXPECT_TRUE(store.contains(spec));
  EXPECT_EQ(store.size(), 1u);

  const std::optional<StoredResult> got = store.load(spec);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->spec == spec);
  ASSERT_EQ(got->replicates.size(), reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_TRUE(got->replicates[i].metrics == reps[i].metrics)
        << "replicate " << i;
    EXPECT_EQ(got->replicates[i].wall_ms, reps[i].wall_ms);
  }
  EXPECT_EQ(store.counters().hits, 1u);

  // And byte-identically across a reopen.
  ResultsStore reopened(dir);
  const std::optional<StoredResult> again = reopened.load(spec);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(query_digest(*again), query_digest(*got));
}

TEST(ResultsStore, MissIsCountedAndReturnsNullopt) {
  ResultsStore store(fresh_dir("miss"));
  EXPECT_FALSE(store.load(tiny_spec()).has_value());
  EXPECT_FALSE(store.load_hash(0xdeadbeefu).has_value());
  EXPECT_EQ(store.counters().misses, 2u);
  EXPECT_EQ(store.counters().hits, 0u);
}

TEST(ResultsStore, RepublishIsRefused) {
  const std::string dir = fresh_dir("republish");
  const JobSpec spec = tiny_spec();
  const std::vector<ReplicateResult> reps = run_replicates_for(spec);
  ResultsStore store(dir);
  store.publish(spec, reps);
  EXPECT_THROW(store.publish(spec, reps), PreconditionError);
}

TEST(ResultsStore, ReplicateCountMustMatchSpec) {
  ResultsStore store(fresh_dir("repcount"));
  const JobSpec spec = tiny_spec();
  std::vector<ReplicateResult> reps = run_replicates_for(spec);
  reps.pop_back();
  EXPECT_THROW(store.publish(spec, reps), PreconditionError);
}

// Crash (exception) after each stage, then reopen: the store must serve
// full-or-miss, and a subsequent publish-or-load cycle must converge on
// the exact uninterrupted digest.
TEST(ResultsStore, CrashAtEveryCommitStageRecoversFullOrMiss) {
  const JobSpec spec = tiny_spec();
  const std::vector<ReplicateResult> reps = run_replicates_for(spec);

  // The digest an uninterrupted publish serves.
  std::uint64_t expected_digest = 0;
  {
    ResultsStore clean(fresh_dir("crash-clean"));
    clean.publish(spec, reps);
    expected_digest = query_digest(*clean.load(spec));
  }

  struct Case {
    ResultsStore::CommitStage stage;
    bool expect_served;  ///< the reopen serves the full result
  };
  const Case cases[] = {
      {ResultsStore::CommitStage::kSegmentWritten, false},
      {ResultsStore::CommitStage::kIndexPublished, true},
  };

  struct Crash {};
  for (const Case& c : cases) {
    const std::string dir =
        fresh_dir(("crash-" + std::to_string(static_cast<int>(c.stage))).c_str());
    {
      ResultsStore store(dir);
      store.set_commit_hook([&c](ResultsStore::CommitStage s) {
        if (s == c.stage) throw Crash{};
      });
      EXPECT_THROW(store.publish(spec, reps), Crash);
      // The handle is poisoned: the caller cannot tell which stage landed.
      EXPECT_THROW(store.load(spec), IoError);
      EXPECT_THROW(store.publish(spec, reps), IoError);
    }

    ResultsStore reopened(dir);
    if (c.expect_served) {
      const std::optional<StoredResult> got = reopened.load(spec);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(query_digest(*got), expected_digest);
    } else {
      // The unindexed segment is a clean miss; a re-publish (from the
      // journal, in the service) overwrites it and converges on the
      // uninterrupted digest.
      EXPECT_FALSE(reopened.load(spec).has_value()) << "clean miss expected";
      EXPECT_TRUE(std::filesystem::exists(
          reopened.segment_path(spec.content_hash())));
      reopened.publish(spec, reps);
      EXPECT_EQ(query_digest(*reopened.load(spec)), expected_digest);
    }
  }
}

TEST(ResultsStore, EntriesAreHashOrderedAndDistinct) {
  ResultsStore store(fresh_dir("entries"));
  const JobSpec a = tiny_spec(7);
  const JobSpec b = tiny_spec(100);
  store.publish(a, run_replicates_for(a));
  store.publish(b, run_replicates_for(b));
  const std::vector<JobSpec> entries = store.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_LT(entries[0].content_hash(), entries[1].content_hash());
  EXPECT_TRUE(store.contains(a));
  EXPECT_TRUE(store.contains(b));
}

TEST(ResultsStore, CrossoverAndCurveServeFromStore) {
  ResultsStore store(fresh_dir("query"));
  const JobSpec a = tiny_spec(7);
  const JobSpec b = tiny_spec(100);
  store.publish(a, run_replicates_for(a));
  store.publish(b, run_replicates_for(b));

  const StoredResult ra = *store.load(a);
  const StoredResult rb = *store.load(b);
  const CompletionCurve curve = completion_curve(ra);
  EXPECT_EQ(curve.nodes, a.config.nodes);
  EXPECT_EQ(curve.replicates, ra.replicates.size());
  ASSERT_FALSE(curve.mean_complete_nodes.empty());
  // All replicates delivered, so the curve ends at n complete nodes.
  EXPECT_DOUBLE_EQ(curve.mean_complete_nodes.back(),
                   static_cast<double>(a.config.nodes));

  const CrossoverReport x = find_crossover(ra, rb);
  EXPECT_EQ(x.winner == 0,
            x.mean_rounds_a == x.mean_rounds_b);
  // Self-crossover: a dominates itself from round 0.
  const CrossoverReport self = find_crossover(ra, ra);
  EXPECT_EQ(self.winner, 0);
  EXPECT_EQ(self.a_dominates_from, 0u);
  EXPECT_EQ(self.b_dominates_from, 0u);
}

}  // namespace
}  // namespace hinet
