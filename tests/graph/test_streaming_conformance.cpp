// Streaming == materialized conformance suite.
//
// The streaming trace layer's whole contract is byte-identical round
// emission: for every generator, StreamingNetwork::graph_at(r) must equal
// the materialized trace's graph for round r — in order, out of order,
// past the horizon, and composed with fault decorators.  This template
// pins that contract for every streaming provider in the repo so a future
// generator change that breaks draw-order equivalence fails loudly here.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/hinet_generator.hpp"
#include "graph/adversary.hpp"
#include "graph/dynamic.hpp"
#include "graph/markovian.hpp"
#include "graph/mobility.hpp"
#include "sim/faults.hpp"

namespace hinet {
namespace {

/// One conformance case: a streaming provider factory plus the
/// materialized reference trace it must reproduce.
struct Case {
  std::string name;
  std::function<std::unique_ptr<StreamingNetwork>()> stream;
  GraphSequence reference;
};

std::vector<Case> conformance_cases() {
  std::vector<Case> cases;

  MarkovianConfig emdg;
  emdg.nodes = 24;
  emdg.rounds = 40;
  emdg.seed = 7;
  cases.push_back({"emdg",
                   [emdg] {
                     return std::make_unique<EdgeMarkovianNetwork>(emdg);
                   },
                   make_edge_markovian_trace(emdg)});

  AdversaryConfig adv;
  adv.nodes = 20;
  adv.interval = 5;
  adv.rounds = 37;  // deliberately not a multiple of the interval
  adv.churn_edges = 3;
  adv.seed = 11;
  cases.push_back({"t_interval_tree",
                   [adv] {
                     return std::make_unique<TIntervalNetwork>(adv, false);
                   },
                   make_t_interval_trace(adv)});
  cases.push_back({"t_interval_path",
                   [adv] {
                     return std::make_unique<TIntervalNetwork>(adv, true);
                   },
                   make_t_interval_path_trace(adv)});

  for (const MobilityModel model :
       {MobilityModel::kRandomWaypoint, MobilityModel::kRandomWalk,
        MobilityModel::kManhattan}) {
    MobilityConfig mob;
    mob.nodes = 16;
    mob.model = model;
    mob.rounds = 30;
    mob.pause_rounds = model == MobilityModel::kRandomWaypoint ? 2 : 0;
    mob.seed = 13;
    const char* name = model == MobilityModel::kRandomWaypoint
                           ? "mobility_waypoint"
                           : model == MobilityModel::kRandomWalk
                                 ? "mobility_walk"
                                 : "mobility_manhattan";
    cases.push_back({name,
                     [mob] { return std::make_unique<MobilityNetwork>(mob); },
                     MobilityTrace(mob).network()});
  }

  // The stream every simulating workload runs, with head churn and
  // backbone rewiring so phase boundaries re-plan the backbone.
  HiNetConfig hinet;
  hinet.nodes = 40;
  hinet.heads = 5;
  hinet.phase_length = 4;
  hinet.phases = 6;
  hinet.hop_l = 2;
  hinet.head_churn_prob = 0.3;
  hinet.backbone_rewire_prob = 0.5;
  hinet.churn_edges = 3;
  hinet.seed = 21;
  cases.push_back({"hinet",
                   [hinet] {
                     return std::make_unique<HiNetStreamNetwork>(hinet);
                   },
                   std::move(make_hinet_trace(hinet).ctvg.topology())});

  return cases;
}

TEST(StreamingConformance, ForwardScanMatchesMaterialized) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream();
    ASSERT_EQ(net->node_count(), c.reference.node_count());
    ASSERT_EQ(net->round_count(), c.reference.round_count());
    for (Round r = 0; r < c.reference.round_count(); ++r) {
      EXPECT_EQ(net->graph_at(r), c.reference.graph_at(r))
          << "round " << r << " diverges";
    }
    EXPECT_EQ(net->rewinds(), 0u) << "forward scan must never replay";
  }
}

TEST(StreamingConformance, PastHorizonRepeatsFinalRound) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream();
    const std::size_t horizon = c.reference.round_count();
    // Same repeat-final-round convention as GraphSequence, including far
    // past the end.
    EXPECT_EQ(net->graph_at(horizon), c.reference.graph_at(horizon));
    EXPECT_EQ(net->graph_at(horizon + 5), c.reference.graph_at(horizon + 5));
    EXPECT_EQ(net->graph_at(horizon - 1), c.reference.graph_at(horizon - 1));
  }
}

TEST(StreamingConformance, BackwardAccessReplaysDeterministically) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream();
    const std::size_t horizon = c.reference.round_count();
    // Jump to the end, then re-read round 0: forces a rewind, which must
    // reproduce the identical prefix.
    (void)net->graph_at(horizon - 1);
    EXPECT_EQ(net->graph_at(0), c.reference.graph_at(0));
    EXPECT_GE(net->rewinds(), 1u);
    // And the ring still serves the freshly replayed rounds.
    EXPECT_EQ(net->graph_at(1), c.reference.graph_at(1));
  }
}

TEST(StreamingConformance, WindowedResidencyServesRecentRounds) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream();
    const std::size_t horizon = c.reference.round_count();
    ASSERT_GE(horizon, 8u);
    (void)net->graph_at(7);
    // Rounds 6..7 are inside the ring: reading them back is replay-free.
    for (Round r = 6; r <= 7; ++r) {
      EXPECT_EQ(net->graph_at(r), c.reference.graph_at(r));
    }
    EXPECT_EQ(net->rewinds(), 0u);
  }
}

TEST(StreamingConformance, FaultyNetworkComposesWithStreaming) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    FaultPlan plan;
    CrashEvent crash;
    crash.node = 3;
    crash.round = 5;
    crash.recovery = 12;
    plan.crashes.push_back(crash);
    LinkBurst burst;
    burst.start = 8;
    burst.length = 4;
    burst.links = {{0, 1}, {1, 2}};
    plan.bursts.push_back(burst);

    auto net = c.stream();
    FaultyNetwork faulty_stream(*net, plan);
    FaultyNetwork faulty_ref(c.reference, plan);
    for (Round r = 0; r < c.reference.round_count(); ++r) {
      EXPECT_EQ(faulty_stream.graph_at(r), faulty_ref.graph_at(r))
          << "round " << r << " diverges under faults";
    }
  }
}

TEST(StreamingConformance, HiNetStreamMatchesMaterializedTrace) {
  HiNetConfig cfg;
  cfg.nodes = 40;
  cfg.heads = 5;
  cfg.phase_length = 4;
  cfg.phases = 6;
  cfg.hop_l = 2;
  cfg.head_churn_prob = 0.3;
  cfg.backbone_rewire_prob = 0.5;
  cfg.churn_edges = 3;
  cfg.seed = 21;

  HiNetTrace trace = make_hinet_trace(cfg);
  HiNetStream stream = make_hinet_stream(cfg);
  const std::size_t rounds = cfg.phases * cfg.phase_length;
  ASSERT_EQ(stream.rounds, rounds);

  for (Round r = 0; r < rounds; ++r) {
    EXPECT_EQ(stream.topology->graph_at(r), trace.ctvg.graph_at(r))
        << "graph diverges at round " << r;
    EXPECT_TRUE(stream.hierarchy->hierarchy_at(r) == trace.ctvg.hierarchy_at(r))
        << "hierarchy diverges at round " << r;
  }
  // Past-horizon clamp matches the sequence convention on both views.
  EXPECT_EQ(stream.topology->graph_at(rounds + 3),
            trace.ctvg.graph_at(rounds + 3));
  EXPECT_TRUE(stream.hierarchy->hierarchy_at(rounds + 3) ==
              trace.ctvg.hierarchy_at(rounds + 3));
}

TEST(StreamingConformance, HiNetStreamBackwardAccessReplays) {
  HiNetConfig cfg;
  cfg.nodes = 30;
  cfg.heads = 4;
  cfg.phase_length = 3;
  cfg.phases = 5;
  cfg.seed = 5;

  HiNetTrace trace = make_hinet_trace(cfg);
  HiNetStream stream = make_hinet_stream(cfg);
  const std::size_t rounds = cfg.phases * cfg.phase_length;
  (void)stream.topology->graph_at(rounds - 1);
  for (Round r = 0; r < rounds; ++r) {
    EXPECT_EQ(stream.topology->graph_at(r), trace.ctvg.graph_at(r));
    EXPECT_TRUE(stream.hierarchy->hierarchy_at(r) ==
                trace.ctvg.hierarchy_at(r));
  }
}

TEST(StreamingConformance, MaterializeBudgetGuardThrows) {
  MarkovianConfig cfg;
  cfg.nodes = 64;
  cfg.rounds = 1000;
  cfg.seed = 3;
  EdgeMarkovianNetwork net(cfg);
  // A one-graph byte budget cannot host a thousand rounds.
  EXPECT_THROW(materialize(net, cfg.rounds, /*byte_budget=*/1024),
               PreconditionError);
  // A generous budget materializes fine and matches the stream.
  EdgeMarkovianNetwork net2(cfg);
  GraphSequence seq = materialize(net2, 8);
  EdgeMarkovianNetwork net3(cfg);
  for (Round r = 0; r < 8; ++r) {
    EXPECT_EQ(net3.graph_at(r), seq.graph_at(r));
  }
}

}  // namespace
}  // namespace hinet
