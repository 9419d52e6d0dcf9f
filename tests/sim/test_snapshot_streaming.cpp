// Engine checkpoint/resume over streaming traces.
//
// The scenario × channel matrix in test_snapshot.cpp already runs over
// streaming specs (make_scenario builds them via make_hinet_stream); this
// suite pins the streaming-specific guarantees on top:
//   - a snapshot holds the run, not the trace: a restored engine over a
//     fresh stream synthesizes the prefix forward from the seed, which
//     counts no rewind;
//   - so the same snapshot restores over the streamed and the
//     materialized form of one trace, in either direction;
//   - resume composes through FaultyNetwork decoration;
//   - the checkpoint bytes themselves are pinned per streaming provider,
//     so a snapshot file written by one build restores in the next.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "core/hinet_generator.hpp"
#include "graph/adversary.hpp"
#include "graph/markovian.hpp"
#include "graph/mobility.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/snapshot.hpp"
#include "util/binary_io.hpp"

namespace hinet {
namespace {

constexpr std::size_t kNodes = 16;
constexpr std::size_t kRounds = 24;
constexpr std::size_t kTokens = 4;

MarkovianConfig stream_config() {
  MarkovianConfig cfg;
  cfg.nodes = kNodes;
  cfg.rounds = kRounds;
  cfg.initial = 0.3;
  cfg.birth = 0.15;
  cfg.death = 0.2;
  cfg.seed = 77;
  return cfg;
}

std::vector<ProcessPtr> make_processes(std::size_t nodes = kNodes) {
  Rng rng(123);
  const auto initial =
      assign_tokens(nodes, kTokens, AssignmentMode::kDistinctRandom, rng);
  KloFloodParams p;
  p.k = kTokens;
  p.rounds = kRounds;
  return make_klo_flood_processes(initial, p);
}

EngineConfig run_config() {
  EngineConfig cfg;
  cfg.max_rounds = kRounds;
  cfg.stop_when_complete = false;
  return cfg;
}

TEST(SnapshotStreaming, ResumeContinuesAtFrontierWithoutReplay) {
  // Uninterrupted reference.
  EdgeMarkovianNetwork ref_net(stream_config());
  Engine ref(ref_net, nullptr, make_processes());
  const SimMetrics expected = ref.run(run_config());

  // Interrupted run: snapshot mid-flight.
  EdgeMarkovianNetwork net_a(stream_config());
  Engine a(net_a, nullptr, make_processes());
  a.start(run_config());
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(a.step());
  const SimSnapshot snap = a.snapshot();

  // Restore into a FRESH engine over a FRESH network: the first step
  // synthesizes rounds 0..9 forward from the seed, which is not a rewind.
  EdgeMarkovianNetwork net_b(stream_config());
  Engine b(net_b, nullptr, make_processes());
  b.restore(snap);

  while (b.step()) {
  }
  const SimMetrics resumed = b.finish();
  EXPECT_TRUE(resumed == expected);
  EXPECT_EQ(net_b.rewinds(), 0u);
}

/// Runs 9 rounds over `net`, snapshots, restores into a fresh engine over
/// `resume_net` and finishes there.
SimMetrics resume_across(DynamicNetwork& net, DynamicNetwork& resume_net) {
  Engine a(net, nullptr, make_processes());
  a.start(run_config());
  for (int i = 0; i < 9; ++i) EXPECT_TRUE(a.step());
  const SimSnapshot snap = a.snapshot();

  Engine b(resume_net, nullptr, make_processes());
  b.restore(snap);
  while (b.step()) {
  }
  return b.finish();
}

TEST(SnapshotStreaming, StreamedAndMaterializedSnapshotsRestoreIntoEachOther) {
  // Streamed and materialized are two forms of one trace and the snapshot
  // holds neither, so a checkpoint taken over one finishes over the other
  // exactly as the uninterrupted run does.
  GraphSequence ref_seq = make_edge_markovian_trace(stream_config());
  Engine ref(ref_seq, nullptr, make_processes());
  const SimMetrics expected = ref.run(run_config());

  {
    SCOPED_TRACE("streamed -> materialized");
    EdgeMarkovianNetwork net(stream_config());
    GraphSequence seq = make_edge_markovian_trace(stream_config());
    EXPECT_TRUE(resume_across(net, seq) == expected);
  }
  {
    SCOPED_TRACE("materialized -> streamed");
    GraphSequence seq = make_edge_markovian_trace(stream_config());
    EdgeMarkovianNetwork net(stream_config());
    EXPECT_TRUE(resume_across(seq, net) == expected);
    EXPECT_EQ(net.rewinds(), 0u);
  }
}

TEST(SnapshotStreaming, ComposesThroughFaultyNetwork) {
  FaultPlan plan;
  CrashEvent crash;
  crash.node = 2;
  crash.round = 4;
  crash.recovery = 14;
  plan.crashes.push_back(crash);

  EdgeMarkovianNetwork ref_net(stream_config());
  FaultyNetwork ref_faulty(ref_net, plan);
  Engine ref(ref_faulty, nullptr, make_processes());
  const SimMetrics expected = ref.run(run_config());

  EdgeMarkovianNetwork net_a(stream_config());
  FaultyNetwork faulty_a(net_a, plan);
  Engine a(faulty_a, nullptr, make_processes());
  a.start(run_config());
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(a.step());
  const SimSnapshot snap = a.snapshot();

  EdgeMarkovianNetwork net_b(stream_config());
  FaultyNetwork faulty_b(net_b, plan);
  Engine b(faulty_b, nullptr, make_processes());
  b.restore(snap);
  while (b.step()) {
  }
  EXPECT_TRUE(b.finish() == expected);
  EXPECT_EQ(net_b.rewinds(), 0u);
}

/// CRC-32 of the snapshot payload taken after 9 rounds of a KLO flood over
/// `net`, with `channel` (may be null) installed.
std::uint32_t payload_crc_at_round_9(DynamicNetwork& net,
                                     HierarchyProvider* hierarchy,
                                     ChannelModel* channel) {
  Engine engine(net, hierarchy, make_processes(net.node_count()));
  engine.set_channel(channel);
  engine.start(run_config());
  for (int i = 0; i < 9; ++i) EXPECT_TRUE(engine.step());
  return crc32(engine.snapshot().payload);
}

TEST(SnapshotStreaming, CheckpointPayloadBytesArePinned) {
  // Snapshot files outlive the build that wrote them, so the payload of a
  // mid-run checkpoint over every streaming provider is pinned.  A change
  // to process, channel or RNG serialization that moves one byte breaks
  // resume of existing checkpoint files and must show up here.
  {
    SCOPED_TRACE("edge-Markovian, lossy channel");
    EdgeMarkovianNetwork net(stream_config());
    LossyChannel channel(0.2, 31);
    EXPECT_EQ(payload_crc_at_round_9(net, nullptr, &channel), 0x23db2d29u);
  }
  {
    SCOPED_TRACE("T-interval adversary, Gilbert-Elliott channel");
    AdversaryConfig cfg;
    cfg.nodes = kNodes;
    cfg.interval = 3;
    cfg.rounds = kRounds;
    cfg.churn_edges = 5;
    cfg.seed = 11;
    TIntervalNetwork net(cfg, /*path_backbone=*/false);
    GilbertElliottChannel channel(GilbertElliottParams{}, 32);
    EXPECT_EQ(payload_crc_at_round_9(net, nullptr, &channel), 0x6295d0a1u);
  }
  {
    SCOPED_TRACE("T-interval path adversary, lossy channel");
    AdversaryConfig cfg;
    cfg.nodes = kNodes;
    cfg.interval = 4;
    cfg.rounds = kRounds;
    cfg.churn_edges = 3;
    cfg.seed = 12;
    TIntervalNetwork net(cfg, /*path_backbone=*/true);
    LossyChannel channel(0.1, 35);
    EXPECT_EQ(payload_crc_at_round_9(net, nullptr, &channel), 0xdf4b20feu);
  }
  {
    SCOPED_TRACE("random-waypoint mobility, perfect channel");
    MobilityConfig cfg;
    cfg.nodes = kNodes;
    cfg.radius = 0.35;
    cfg.rounds = kRounds;
    cfg.seed = 9;
    MobilityNetwork net(cfg);
    EXPECT_EQ(payload_crc_at_round_9(net, nullptr, nullptr), 0x91c52e88u);
  }
  {
    SCOPED_TRACE("(T, L)-HiNet stream, Gilbert-Elliott channel");
    HiNetConfig cfg;
    cfg.nodes = 24;
    cfg.heads = 4;
    cfg.phase_length = 3;
    cfg.phases = kRounds / 3;
    cfg.hop_l = 2;
    cfg.seed = 3;
    HiNetStream stream = make_hinet_stream(cfg);
    GilbertElliottChannel channel(GilbertElliottParams{}, 33);
    EXPECT_EQ(payload_crc_at_round_9(*stream.topology, stream.hierarchy.get(),
                                     &channel),
              0x5b5ec0a9u);
  }
  {
    SCOPED_TRACE("(T, L)-HiNet stream, lossy channel");
    HiNetConfig cfg;
    cfg.nodes = 30;
    cfg.heads = 3;
    cfg.phase_length = 2;
    cfg.phases = kRounds / 2;
    cfg.hop_l = 3;
    cfg.head_churn_prob = 0.3;
    cfg.churn_edges = 6;
    cfg.seed = 4;
    HiNetStream stream = make_hinet_stream(cfg);
    LossyChannel channel(0.15, 34);
    EXPECT_EQ(payload_crc_at_round_9(*stream.topology, stream.hierarchy.get(),
                                     &channel),
              0x1df614dau);
  }
}

}  // namespace
}  // namespace hinet
