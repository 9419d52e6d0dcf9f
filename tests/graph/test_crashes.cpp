// Crash-fault injection and hierarchy self-repair.
#include "graph/crashes.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "cluster/maintenance.hpp"
#include "core/alg2.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace hinet {
namespace {

/// The first `rounds` rounds of `base` with the crash events applied
/// through the fault decorator.
GraphSequence materialize_crashes(DynamicNetwork& base, std::size_t rounds,
                                  std::span<const CrashEvent> crashes) {
  FaultPlan plan;
  plan.crashes.assign(crashes.begin(), crashes.end());
  FaultyNetwork net(base, std::move(plan));
  return materialize(net, rounds);
}

TEST(Crashes, EdgesRemovedFromCrashRoundOn) {
  StaticNetwork base(gen::complete(4));
  const CrashEvent plan[] = {{1, 2}};
  GraphSequence seq = materialize_crashes(base, 5, plan);
  for (Round r = 0; r < 2; ++r) {
    EXPECT_EQ(seq.graph_at(r).degree(1), 3u) << "round " << r;
  }
  for (Round r = 2; r < 5; ++r) {
    EXPECT_EQ(seq.graph_at(r).degree(1), 0u) << "round " << r;
    // Other nodes keep their mutual edges.
    EXPECT_TRUE(seq.graph_at(r).has_edge(0, 2));
  }
}

TEST(Crashes, MultipleCrashesAccumulate) {
  StaticNetwork base(gen::complete(5));
  const CrashEvent plan[] = {{0, 1}, {4, 3}};
  GraphSequence seq = materialize_crashes(base, 5, plan);
  EXPECT_EQ(seq.graph_at(0).edge_count(), 10u);
  EXPECT_EQ(seq.graph_at(1).edge_count(), 6u);  // minus node 0's 4 edges
  EXPECT_EQ(seq.graph_at(3).edge_count(), 3u);  // minus node 4's remaining 3
}

TEST(Crashes, RecoveryRestoresEdges) {
  // Node 1 is down for [2, 5): full degree before, isolated during, and
  // full degree again from the recovery round on.
  StaticNetwork base(gen::complete(4));
  const CrashEvent plan[] = {{1, 2, 5}};
  GraphSequence seq = materialize_crashes(base, 8, plan);
  for (Round r = 0; r < 2; ++r) {
    EXPECT_EQ(seq.graph_at(r).degree(1), 3u) << "round " << r;
  }
  for (Round r = 2; r < 5; ++r) {
    EXPECT_EQ(seq.graph_at(r).degree(1), 0u) << "round " << r;
  }
  for (Round r = 5; r < 8; ++r) {
    EXPECT_EQ(seq.graph_at(r).degree(1), 3u) << "round " << r;
  }
}

TEST(Crashes, DownAtMatchesHalfOpenWindow) {
  const CrashEvent e{2, 3, 6};
  EXPECT_FALSE(e.down_at(2));
  EXPECT_TRUE(e.down_at(3));
  EXPECT_TRUE(e.down_at(5));
  EXPECT_FALSE(e.down_at(6));
  const CrashEvent permanent{2, 3};
  EXPECT_TRUE(permanent.down_at(1'000'000));
}

TEST(Crashes, AliveNodesSeesRecovery) {
  const CrashEvent plan[] = {{1, 2, 4}, {3, 0}};
  EXPECT_EQ(alive_nodes(5, 0, plan), (std::vector<NodeId>{0, 1, 2, 4}));
  EXPECT_EQ(alive_nodes(5, 2, plan), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(alive_nodes(5, 4, plan), (std::vector<NodeId>{0, 1, 2, 4}));
}

TEST(Crashes, RecoveryNotAfterCrashRejected) {
  StaticNetwork base(gen::complete(3));
  const CrashEvent plan[] = {{1, 4, 4}};  // empty window: surely a typo
  EXPECT_THROW(materialize_crashes(base, 6, plan), PreconditionError);
}

TEST(Crashes, RecoveredRelayResumesForwarding) {
  // A 4-node path 0-1-2-3; relay 1 sleeps for rounds [1, 6).  Token 0
  // starts at node 0 and can only cross through node 1, so nodes 2 and 3
  // learn it only after the recovery.
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  StaticNetwork base(g);
  const CrashEvent plan[] = {{1, 1, 6}};
  GraphSequence seq = materialize_crashes(base, 12, plan);

  std::vector<TokenSet> init(4, TokenSet(1));
  init[0].insert(0);
  KloFloodParams p;
  p.k = 1;
  p.rounds = 12;
  auto procs = make_klo_flood_processes(init, p);
  std::vector<const Process*> views;
  for (const auto& pr : procs) views.push_back(pr.get());
  Engine engine(seq, nullptr, std::move(procs));
  const SimMetrics m =
      engine.run({.max_rounds = 12, .stop_when_complete = false});
  EXPECT_TRUE(m.all_delivered);
  // Completion could not have happened while the relay slept.
  ASSERT_TRUE(m.rounds_to_completion != kNever);
  EXPECT_GT(m.rounds_to_completion, 6u);
}

TEST(Crashes, OutOfRangeNodeRejected) {
  StaticNetwork base(Graph(3));
  const CrashEvent plan[] = {{7, 0}};
  EXPECT_THROW(materialize_crashes(base, 2, plan), PreconditionError);
}

TEST(Crashes, AliveNodesTracksPlan) {
  const CrashEvent plan[] = {{1, 2}, {3, 4}};
  EXPECT_EQ(alive_nodes(5, 0, plan), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(alive_nodes(5, 2, plan), (std::vector<NodeId>{0, 2, 3, 4}));
  EXPECT_EQ(alive_nodes(5, 4, plan), (std::vector<NodeId>{0, 2, 4}));
}

TEST(Crashes, MaintenanceRepairsAfterHeadCrash) {
  // Star with hub 0 as head; hub crashes at round 3: every member must
  // re-affiliate or self-promote, and the hierarchy stays valid.
  StaticNetwork base([&] {
    std::vector<Edge> edges = gen::star(6).edges();
    // Ring among the leaves so survivors stay connected after the crash.
    for (NodeId v = 1; v < 5; ++v) edges.push_back({v, v + 1});
    edges.push_back({1, 5});
    return Graph(6, edges);
  }());
  const CrashEvent plan[] = {{0, 3}};
  GraphSequence seq = materialize_crashes(base, 10, plan);

  ClusterMaintainer maint(seq.graph_at(0));
  ASSERT_TRUE(maint.view().is_head(0));
  for (Round r = 1; r < 10; ++r) {
    maint.step(seq.graph_at(r));
    EXPECT_EQ(maint.view().validate(seq.graph_at(r)), "") << "round " << r;
  }
  // After the crash some survivor must have become a head.
  bool survivor_head = false;
  for (NodeId v = 1; v < 6; ++v) survivor_head |= maint.view().is_head(v);
  EXPECT_TRUE(survivor_head);
  EXPECT_GE(maint.stats().head_promotions, 1u);
}

TEST(Crashes, SurvivorsStillDisseminateSurvivingTokens) {
  // Token holders stay alive; a relay node crashes mid-run.  The ring
  // provides alternate paths, so all survivors must still complete.
  Graph g = gen::ring(8);
  StaticNetwork base(g);
  const CrashEvent plan[] = {{2, 3}};
  GraphSequence seq = materialize_crashes(base, 30, plan);

  std::vector<TokenSet> init(8, TokenSet(2));
  init[0].insert(0);
  init[4].insert(1);
  KloFloodParams p;
  p.k = 2;
  p.rounds = 30;
  auto procs = make_klo_flood_processes(init, p);
  std::vector<const Process*> views;
  for (const auto& pr : procs) views.push_back(pr.get());
  Engine engine(seq, nullptr, std::move(procs));
  engine.run({.max_rounds = 30, .stop_when_complete = false});

  for (NodeId v : alive_nodes(8, 30, plan)) {
    EXPECT_TRUE(views[v]->knowledge().full()) << "survivor " << v;
  }
}

TEST(Crashes, SoleHolderCrashLosesTheToken) {
  // Node 3 holds token 0 and dies at round 0: nobody can ever learn it.
  StaticNetwork base(gen::complete(5));
  const CrashEvent plan[] = {{3, 0}};
  GraphSequence seq = materialize_crashes(base, 10, plan);
  std::vector<TokenSet> init(5, TokenSet(1));
  init[3].insert(0);
  KloFloodParams p;
  p.k = 1;
  p.rounds = 10;
  auto procs = make_klo_flood_processes(init, p);
  std::vector<const Process*> views;
  for (const auto& pr : procs) views.push_back(pr.get());
  Engine engine(seq, nullptr, std::move(procs));
  const SimMetrics m =
      engine.run({.max_rounds = 10, .stop_when_complete = false});
  EXPECT_FALSE(m.all_delivered);
  for (NodeId v = 0; v < 5; ++v) {
    if (v == 3) continue;
    EXPECT_TRUE(views[v]->knowledge().empty());
  }
}

}  // namespace
}  // namespace hinet
