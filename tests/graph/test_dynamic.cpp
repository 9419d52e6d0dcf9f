// Tests for the dynamic-network layer: sequences, the adversarial
// T-interval generator, EMDG, mobility, the interval-connectivity
// checkers, and the causal-influence flood (dynamic diameter).
#include <gtest/gtest.h>

#include "graph/adversary.hpp"
#include "graph/dynamic.hpp"
#include "graph/generators.hpp"
#include "graph/interval.hpp"
#include "graph/markovian.hpp"
#include "graph/mobility.hpp"

namespace hinet {
namespace {

TEST(GraphSequence, BasicAccessAndClamping) {
  std::vector<Graph> rounds;
  rounds.push_back(gen::path(3));
  rounds.push_back(gen::complete(3));
  GraphSequence seq(std::move(rounds));
  EXPECT_EQ(seq.node_count(), 3u);
  EXPECT_EQ(seq.round_count(), 2u);
  EXPECT_EQ(seq.graph_at(0).edge_count(), 2u);
  EXPECT_EQ(seq.graph_at(1).edge_count(), 3u);
  // Past-the-end rounds repeat the final graph.
  EXPECT_EQ(seq.graph_at(99).edge_count(), 3u);
}

TEST(GraphSequence, RejectsEmptyAndMismatched) {
  EXPECT_THROW(GraphSequence({}), PreconditionError);
  std::vector<Graph> rounds;
  rounds.push_back(Graph(3));
  rounds.push_back(Graph(4));
  EXPECT_THROW(GraphSequence(std::move(rounds)), PreconditionError);
}

TEST(GraphSequence, PushBackExtends) {
  GraphSequence seq({Graph(2)});
  seq.push_back(gen::path(2));
  EXPECT_EQ(seq.round_count(), 2u);
  EXPECT_THROW(seq.push_back(Graph(3)), PreconditionError);
}

TEST(StaticNetwork, SameGraphEveryRound) {
  StaticNetwork net(gen::ring(4));
  EXPECT_EQ(net.node_count(), 4u);
  EXPECT_EQ(net.graph_at(0).edge_count(), 4u);
  EXPECT_EQ(net.graph_at(1000).edge_count(), 4u);
}

TEST(Adversary, TraceIsTIntervalConnectedByConstruction) {
  for (std::size_t t : {1u, 3u, 5u}) {
    AdversaryConfig cfg;
    cfg.nodes = 20;
    cfg.interval = t;
    cfg.rounds = 30;
    cfg.churn_edges = 5;
    cfg.seed = 7;
    GraphSequence seq = make_t_interval_trace(cfg);
    EXPECT_EQ(seq.round_count(), 30u);
    EXPECT_TRUE(is_t_interval_connected(seq, 30, t))
        << "T=" << t << " violated";
  }
}

TEST(Adversary, PathVariantIsAlsoTIntervalConnected) {
  AdversaryConfig cfg;
  cfg.nodes = 15;
  cfg.interval = 4;
  cfg.rounds = 24;
  cfg.churn_edges = 0;
  cfg.seed = 3;
  GraphSequence seq = make_t_interval_path_trace(cfg);
  EXPECT_TRUE(is_t_interval_connected(seq, 24, 4));
  // Without churn, each round carries at most two overlapping relabelled
  // paths (current + next window's backbone).
  EXPECT_LE(seq.graph_at(0).edge_count(), 28u);
  // Every sliding window's stable subgraph contains a spanning path.
  for (Round start = 0; start + 4 <= 24; ++start) {
    const Graph stable = stable_subgraph(seq, start, 4);
    EXPECT_TRUE(stable.is_connected()) << "window " << start;
  }
}

TEST(Adversary, DeterministicPerSeed) {
  AdversaryConfig cfg;
  cfg.nodes = 12;
  cfg.interval = 2;
  cfg.rounds = 10;
  cfg.churn_edges = 3;
  cfg.seed = 42;
  GraphSequence a = make_t_interval_trace(cfg);
  GraphSequence b = make_t_interval_trace(cfg);
  for (Round r = 0; r < 10; ++r) {
    EXPECT_TRUE(a.graph_at(r) == b.graph_at(r));
  }
}

TEST(Adversary, ChurnAddsEdgesBeyondBackbone) {
  AdversaryConfig cfg;
  cfg.nodes = 30;
  cfg.interval = 5;
  cfg.rounds = 5;
  cfg.churn_edges = 20;
  cfg.seed = 1;
  GraphSequence seq = make_t_interval_trace(cfg);
  EXPECT_GT(seq.graph_at(0).edge_count(), 29u);
}

TEST(Adversary, RejectsBadConfig) {
  AdversaryConfig cfg;
  EXPECT_THROW(make_t_interval_trace(cfg), PreconditionError);
}

TEST(Markovian, StationaryDensityFormula) {
  EXPECT_DOUBLE_EQ(edge_markovian_stationary_density(0.1, 0.3), 0.25);
  EXPECT_THROW(edge_markovian_stationary_density(0.0, 0.0),
               PreconditionError);
}

TEST(Markovian, ZeroBirthZeroDeathFreezesGraph) {
  MarkovianConfig cfg;
  cfg.nodes = 10;
  cfg.birth = 0.0;
  cfg.death = 0.0;
  cfg.initial = 0.4;
  cfg.rounds = 5;
  cfg.seed = 9;
  GraphSequence seq = make_edge_markovian_trace(cfg);
  for (Round r = 1; r < 5; ++r) {
    EXPECT_TRUE(seq.graph_at(r) == seq.graph_at(0));
  }
}

TEST(Markovian, DeathOneClearsEdges) {
  MarkovianConfig cfg;
  cfg.nodes = 10;
  cfg.birth = 0.0;
  cfg.death = 1.0;
  cfg.initial = 1.0;
  cfg.rounds = 3;
  cfg.seed = 9;
  GraphSequence seq = make_edge_markovian_trace(cfg);
  EXPECT_EQ(seq.graph_at(0).edge_count(), 45u);
  EXPECT_EQ(seq.graph_at(1).edge_count(), 0u);
}

TEST(Markovian, DensityApproachesStationary) {
  MarkovianConfig cfg;
  cfg.nodes = 40;
  cfg.birth = 0.2;
  cfg.death = 0.2;
  cfg.initial = 0.0;
  cfg.rounds = 60;
  cfg.seed = 17;
  GraphSequence seq = make_edge_markovian_trace(cfg);
  const double total = 40.0 * 39.0 / 2.0;
  const double density =
      static_cast<double>(seq.graph_at(59).edge_count()) / total;
  EXPECT_NEAR(density, 0.5, 0.1);
}

TEST(Mobility, TraceHasRequestedShape) {
  MobilityConfig cfg;
  cfg.nodes = 25;
  cfg.rounds = 12;
  cfg.radius = 0.3;
  cfg.seed = 5;
  MobilityTrace trace(cfg);
  EXPECT_EQ(trace.round_count(), 12u);
  EXPECT_EQ(trace.network().node_count(), 25u);
  EXPECT_EQ(trace.positions_at(0).size(), 25u);
  EXPECT_EQ(trace.positions_at(100).size(), 25u);  // clamped
}

TEST(Mobility, PositionsStayInUnitSquare) {
  for (MobilityModel model :
       {MobilityModel::kRandomWaypoint, MobilityModel::kRandomWalk}) {
    MobilityConfig cfg;
    cfg.nodes = 15;
    cfg.rounds = 50;
    cfg.model = model;
    cfg.min_speed = 0.05;
    cfg.max_speed = 0.2;  // big steps exercise boundary reflection
    cfg.seed = 21;
    MobilityTrace trace(cfg);
    for (Round r = 0; r < 50; ++r) {
      for (const auto& p : trace.positions_at(r)) {
        EXPECT_GE(p.x, 0.0);
        EXPECT_LE(p.x, 1.0);
        EXPECT_GE(p.y, 0.0);
        EXPECT_LE(p.y, 1.0);
      }
    }
  }
}

TEST(Mobility, NodesActuallyMove) {
  MobilityConfig cfg;
  cfg.nodes = 5;
  cfg.rounds = 20;
  cfg.min_speed = 0.01;
  cfg.max_speed = 0.02;
  cfg.seed = 2;
  MobilityTrace trace(cfg);
  const auto& p0 = trace.positions_at(0);
  const auto& p19 = trace.positions_at(19);
  bool moved = false;
  for (std::size_t i = 0; i < 5; ++i) {
    if (p0[i].x != p19[i].x || p0[i].y != p19[i].y) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(Mobility, GraphMatchesPositions) {
  MobilityConfig cfg;
  cfg.nodes = 10;
  cfg.rounds = 5;
  cfg.radius = 0.4;
  cfg.seed = 33;
  MobilityTrace trace(cfg);
  for (Round r = 0; r < 5; ++r) {
    const Graph expected = gen::geometric(trace.positions_at(r), 0.4);
    EXPECT_TRUE(trace.network().graph_at(r) == expected);
  }
}

TEST(Interval, StableSubgraphIsIntersection) {
  std::vector<Graph> rounds;
  rounds.push_back(Graph(3, {{0, 1}, {1, 2}}));
  rounds.push_back(Graph(3, {{1, 2}, {0, 2}}));
  GraphSequence seq(std::move(rounds));
  const Graph stable = stable_subgraph(seq, 0, 2);
  EXPECT_EQ(stable.edge_count(), 1u);
  EXPECT_TRUE(stable.has_edge(1, 2));
}

TEST(Interval, OneIntervalConnectivity) {
  std::vector<Graph> rounds;
  rounds.push_back(gen::path(4));
  rounds.push_back(gen::ring(4));
  GraphSequence ok(std::move(rounds));
  EXPECT_TRUE(is_one_interval_connected(ok, 2));

  std::vector<Graph> bad;
  bad.push_back(gen::path(4));
  bad.push_back(Graph(4, {{0, 1}}));
  GraphSequence broken(std::move(bad));
  EXPECT_FALSE(is_one_interval_connected(broken, 2));
}

TEST(Interval, TIntervalDetectsSlidingViolation) {
  // Rounds 0,1 share a spanning path; rounds 1,2 share nothing connected.
  std::vector<Graph> rounds;
  rounds.push_back(gen::path(3));                 // 0-1, 1-2
  rounds.push_back(gen::path(3));                 // 0-1, 1-2
  rounds.push_back(Graph(3, {{0, 2}, {0, 1}}));   // different edges
  GraphSequence seq(std::move(rounds));
  EXPECT_TRUE(is_t_interval_connected(seq, 3, 1));
  EXPECT_FALSE(is_t_interval_connected(seq, 3, 2));
}

TEST(Interval, MaxIntervalConnectivity) {
  // A static connected graph is T-interval connected for any T.
  std::vector<Graph> rounds(6, gen::ring(5));
  GraphSequence stable(std::move(rounds));
  EXPECT_EQ(max_interval_connectivity(stable, 6), 6u);

  std::vector<Graph> flip;
  for (int i = 0; i < 6; ++i) {
    flip.push_back(i % 2 == 0 ? Graph(3, {{0, 1}, {1, 2}})
                              : Graph(3, {{0, 2}, {2, 1}}));
  }
  GraphSequence alternating(std::move(flip));
  // Consecutive rounds share only edge {1,2}: not spanning-connected.
  EXPECT_EQ(max_interval_connectivity(alternating, 6), 1u);
}

TEST(Interval, DisconnectedRoundGivesZero) {
  std::vector<Graph> rounds;
  rounds.push_back(Graph(3, {{0, 1}}));
  GraphSequence seq(std::move(rounds));
  EXPECT_EQ(max_interval_connectivity(seq, 1), 0u);
}

TEST(Interval, BadArgumentsThrow) {
  GraphSequence seq({gen::path(3)});
  EXPECT_THROW(is_t_interval_connected(seq, 1, 0), PreconditionError);
  EXPECT_THROW(is_t_interval_connected(seq, 1, 2), PreconditionError);
}

TEST(CausalArrival, OneHopPerRound) {
  StaticNetwork net(gen::path(4));
  const auto arrival = causal_arrival(net, 0, 0, 10);
  EXPECT_EQ(arrival[0], 0u);
  EXPECT_EQ(arrival[1], 1u);
  EXPECT_EQ(arrival[2], 2u);
  EXPECT_EQ(arrival[3], 3u);
}

TEST(CausalArrival, HorizonLimits) {
  StaticNetwork net(gen::path(4));
  const auto arrival = causal_arrival(net, 0, 0, 2);
  EXPECT_EQ(arrival[2], 2u);
  EXPECT_EQ(arrival[3], kNeverReached);
}

TEST(CausalArrival, UsesTheRoundGraphs) {
  // Edge 0-1 only in round 0; edge 1-2 only in round 1.
  std::vector<Graph> rounds;
  rounds.push_back(Graph(3, {{0, 1}}));
  rounds.push_back(Graph(3, {{1, 2}}));
  rounds.push_back(Graph(3));
  GraphSequence net(std::move(rounds));
  const auto arrival = causal_arrival(net, 0, 0, 3);
  EXPECT_EQ(arrival[1], 1u);
  EXPECT_EQ(arrival[2], 2u);
  // Starting at round 1, the 0-1 edge is already gone.
  const auto late = causal_arrival(net, 0, 1, 2);
  EXPECT_EQ(late[1], kNeverReached);
}

TEST(DynamicDiameter, StaticGraphMatchesDiameter) {
  std::vector<Graph> rounds(8, gen::path(5));
  GraphSequence net(std::move(rounds));
  EXPECT_EQ(dynamic_diameter(net, 8), std::optional<std::size_t>(4));
}

TEST(DynamicDiameter, SingleNodeIsZero) {
  StaticNetwork net(Graph(1));
  EXPECT_EQ(dynamic_diameter(net, 3), std::optional<std::size_t>(0));
}

TEST(DynamicDiameter, DisconnectedTraceHasNone) {
  StaticNetwork net(Graph(3));
  EXPECT_EQ(dynamic_diameter(net, 5), std::nullopt);
}

TEST(DynamicDiameter, DynamicsCanBeatStaticDiameter) {
  // Alternating stars centred at 0: any node reaches all others within 2
  // rounds even though each snapshot is a star (diameter 2).  The dynamic
  // diameter of a 1-interval connected trace is at most n-1 (O'Dell &
  // Wattenhofer); here it should be small.
  std::vector<Graph> rounds(10, gen::star(6));
  GraphSequence net(std::move(rounds));
  const auto d = dynamic_diameter(net, 10);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 2u);
}

TEST(DynamicDiameter, AdversarialTraceBoundedByNMinusOne) {
  AdversaryConfig cfg;
  cfg.nodes = 10;
  cfg.interval = 1;
  cfg.rounds = 30;
  cfg.churn_edges = 0;
  cfg.seed = 4;
  GraphSequence net = make_t_interval_trace(cfg);
  const auto d = dynamic_diameter(net, 30);
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(*d, 9u);  // n-1 bound for 1-interval connected traces
}

}  // namespace
}  // namespace hinet
