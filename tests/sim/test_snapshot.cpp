// Engine checkpoint/resume: the byte-identity guarantee and the API
// contract.
//
// The load-bearing test is the scenario × channel matrix: for every
// evaluation scenario of the paper (Section V) under every channel model
// with cross-round state, snapshot the run mid-flight, push the snapshot
// through the on-disk container (save + load, so the CRC/framing path is
// exercised too), restore into a freshly built identical spec and run to
// the end — the final SimMetrics must equal the uninterrupted run's via
// the exhaustive defaulted operator==.  The remaining tests pin the
// misuse surface: snapshot/restore called at the wrong time, a run
// started after a failed restore, a restore into the wrong spec, or
// processes that opted out of checkpointing must all fail loudly with the
// documented exception types.
#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/scenarios.hpp"
#include "baseline/flooding.hpp"
#include "graph/generators.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace hinet {
namespace {

enum class ChannelKind { kPerfect, kLossy, kCollision, kGilbertElliott };

const char* channel_name(ChannelKind c) {
  switch (c) {
    case ChannelKind::kPerfect:
      return "perfect";
    case ChannelKind::kLossy:
      return "lossy";
    case ChannelKind::kCollision:
      return "collision";
    case ChannelKind::kGilbertElliott:
      return "gilbert-elliott";
  }
  return "?";
}

constexpr Scenario kAllScenarios[] = {
    Scenario::kKloInterval, Scenario::kHiNetInterval,
    Scenario::kHiNetIntervalStable, Scenario::kKloOne, Scenario::kHiNetOne};

constexpr ChannelKind kAllChannels[] = {
    ChannelKind::kPerfect, ChannelKind::kLossy, ChannelKind::kCollision,
    ChannelKind::kGilbertElliott};

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.nodes = 24;
  cfg.heads = 6;
  cfg.k = 4;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  return cfg;
}

SimulationSpec build_spec(Scenario s, ChannelKind c, std::uint64_t seed) {
  SimulationSpec spec = scenario_factory(s, small_config())(seed);
  switch (c) {
    case ChannelKind::kPerfect:
      break;
    case ChannelKind::kLossy:
      spec.channel =
          std::make_unique<LossyChannel>(0.2, seed ^ 0xc0ffee0ddccull);
      break;
    case ChannelKind::kCollision:
      spec.channel = std::make_unique<CollisionChannel>(3);
      break;
    case ChannelKind::kGilbertElliott:
      spec.channel = std::make_unique<GilbertElliottChannel>(
          GilbertElliottParams{}, seed ^ 0xbadc0deull);
      break;
  }
  return spec;
}

SimMetrics run_uninterrupted(SimulationSpec spec) {
  Engine eng(std::move(spec));
  return eng.run();
}

std::string temp_snapshot_path(const char* tag) {
  return ::testing::TempDir() + "hinet_test_" + tag + ".snap";
}

/// Runs `steps` rounds, snapshots, round-trips the snapshot through a
/// file, restores into a freshly built identical spec and finishes.
SimMetrics run_resumed(Scenario s, ChannelKind c, std::uint64_t seed,
                       std::size_t steps, const char* tag) {
  SimulationSpec spec = build_spec(s, c, seed);
  const EngineConfig cfg = spec.engine;
  Engine first(std::move(spec));
  first.start(cfg);
  for (std::size_t i = 0; i < steps; ++i) {
    if (!first.step()) break;
  }
  const SimSnapshot snap = first.snapshot();
  // `first` is abandoned mid-run — exactly the crash the snapshot covers.

  const std::string path = temp_snapshot_path(tag);
  save_snapshot_file(snap, path);
  const SimSnapshot loaded = load_snapshot_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.payload, snap.payload);

  Engine second(build_spec(s, c, seed));
  second.restore(loaded);
  while (second.step()) {
  }
  return second.finish();
}

TEST(EngineSnapshot, MidRunResumeMatchesUninterruptedAcrossScenariosAndChannels) {
  const std::uint64_t seed = 11;
  for (const Scenario s : kAllScenarios) {
    for (const ChannelKind c : kAllChannels) {
      SCOPED_TRACE(std::string(scenario_name(s)) + " / " + channel_name(c));
      const SimMetrics golden = run_uninterrupted(build_spec(s, c, seed));
      ASSERT_GE(golden.rounds_executed, 2u);
      const SimMetrics resumed =
          run_resumed(s, c, seed, golden.rounds_executed / 2, "matrix");
      EXPECT_EQ(resumed, golden);
    }
  }
}

TEST(EngineSnapshot, EveryRoundBoundaryIsAValidResumePoint) {
  // The cheapest scenario with the most channel state: Algorithm 2 on a
  // (1, L) trace under Gilbert–Elliott bursts.  Snapshot at every round
  // boundary from 0 (before any step) to the final round.
  const Scenario s = Scenario::kHiNetOne;
  const ChannelKind c = ChannelKind::kGilbertElliott;
  const std::uint64_t seed = 3;
  const SimMetrics golden = run_uninterrupted(build_spec(s, c, seed));
  for (std::size_t r = 0; r <= golden.rounds_executed; ++r) {
    SCOPED_TRACE("resume at round " + std::to_string(r));
    EXPECT_EQ(run_resumed(s, c, seed, r, "boundary"), golden);
  }
}

TEST(EngineSnapshot, ResumeIsIndependentOfWhereTheFirstRunStopped) {
  // A snapshot taken at round r must not depend on how much further the
  // snapshotting run would have gone: taking it from a run stepped to
  // exactly r and from a run that merely paused there are the same thing.
  const std::uint64_t seed = 17;
  SimulationSpec spec = build_spec(Scenario::kHiNetInterval,
                                   ChannelKind::kLossy, seed);
  const EngineConfig cfg = spec.engine;
  Engine eng(std::move(spec));
  eng.start(cfg);
  std::vector<SimSnapshot> at_round;
  at_round.push_back(eng.snapshot());
  while (eng.step()) at_round.push_back(eng.snapshot());
  const SimMetrics golden = eng.finish();

  for (const std::size_t r : {std::size_t{0}, at_round.size() / 2}) {
    SCOPED_TRACE("snapshot index " + std::to_string(r));
    Engine resumed(
        build_spec(Scenario::kHiNetInterval, ChannelKind::kLossy, seed));
    resumed.restore(at_round[r]);
    while (resumed.step()) {
    }
    EXPECT_EQ(resumed.finish(), golden);
  }
}

TEST(EngineSnapshot, SnapshotBeforeStartIsRejected) {
  Engine eng(build_spec(Scenario::kKloOne, ChannelKind::kPerfect, 1));
  EXPECT_THROW(eng.snapshot(), PreconditionError);
}

TEST(EngineSnapshot, SnapshotAfterFinishIsRejected) {
  Engine eng(build_spec(Scenario::kKloOne, ChannelKind::kPerfect, 1));
  eng.run();
  EXPECT_THROW(eng.snapshot(), PreconditionError);
}

TEST(EngineSnapshot, RestoreOnAStartedEngineIsRejected) {
  SimulationSpec spec = build_spec(Scenario::kKloOne, ChannelKind::kPerfect, 1);
  const EngineConfig cfg = spec.engine;
  Engine donor(std::move(spec));
  donor.start(cfg);
  const SimSnapshot snap = donor.snapshot();

  SimulationSpec spec2 =
      build_spec(Scenario::kKloOne, ChannelKind::kPerfect, 1);
  const EngineConfig cfg2 = spec2.engine;
  Engine started(std::move(spec2));
  started.start(cfg2);
  EXPECT_THROW(started.restore(snap), PreconditionError);
}

TEST(EngineSnapshot, AFailedRestoreAdmitsOnlyAnotherRestore) {
  // A payload cut by its last byte fails in the final process's section,
  // after the channel and every other process were already restored.  A
  // run started on that state would finish with wrong metrics, so the
  // engine refuses start()/run() until a restore succeeds.
  ScenarioConfig cfg;
  cfg.nodes = 12;
  cfg.heads = 3;
  cfg.k = 3;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  const SpecFactory factory = scenario_factory(Scenario::kHiNetOne, cfg);
  SimulationSpec spec = factory(5);
  const EngineConfig run_cfg = spec.engine;
  Engine donor(std::move(spec));
  donor.start(run_cfg);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(donor.step());
  const SimSnapshot snap = donor.snapshot();
  SimSnapshot cut = snap;
  cut.payload.pop_back();

  Engine eng(factory(5));
  EXPECT_THROW(eng.restore(cut), IoError);
  EXPECT_THROW(eng.run(), PreconditionError);
  EXPECT_THROW(eng.start(run_cfg), PreconditionError);

  // Another restore overwrites every section, and the run it begins
  // finishes as the uninterrupted one does.
  eng.restore(snap);
  while (eng.step()) {
  }
  EXPECT_EQ(eng.finish(), run_uninterrupted(factory(5)));
}

TEST(EngineSnapshot, RestoreIntoDifferentlySizedSpecIsRejected) {
  SimulationSpec spec = build_spec(Scenario::kKloOne, ChannelKind::kPerfect, 1);
  const EngineConfig cfg = spec.engine;
  Engine donor(std::move(spec));
  donor.start(cfg);
  const SimSnapshot snap = donor.snapshot();

  ScenarioConfig bigger = small_config();
  bigger.nodes = 30;
  Engine other(scenario_factory(Scenario::kKloOne, bigger)(1));
  EXPECT_THROW(other.restore(snap), IoError);
}

TEST(EngineSnapshot, ChannelPresenceMustMatchTheSnapshot) {
  SimulationSpec with_channel =
      build_spec(Scenario::kKloOne, ChannelKind::kGilbertElliott, 1);
  const EngineConfig cfg = with_channel.engine;
  Engine donor(std::move(with_channel));
  donor.start(cfg);
  const SimSnapshot snap = donor.snapshot();

  Engine channelless(
      build_spec(Scenario::kKloOne, ChannelKind::kPerfect, 1));
  EXPECT_THROW(channelless.restore(snap), IoError);
}

TEST(EngineSnapshot, ProcessesWithoutCheckpointHooksFailLoudly) {
  const std::size_t n = 6;
  const std::size_t k = 3;
  std::vector<TokenSet> initial(n, TokenSet(k));
  for (std::size_t v = 0; v < n; ++v) initial[v].insert(static_cast<TokenId>(v % k));
  FloodingParams params;
  params.k = k;
  params.rounds = 4;

  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::complete(n));
  spec.processes = make_flooding_processes(initial, params);
  spec.engine.max_rounds = 4;
  const EngineConfig cfg = spec.engine;
  Engine eng(std::move(spec));
  eng.start(cfg);
  EXPECT_THROW(eng.snapshot(), PreconditionError);
}

}  // namespace
}  // namespace hinet
