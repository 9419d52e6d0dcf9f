#include "cluster/algorithms.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace hinet {
namespace {

// Shared invariants every clustering of a graph must satisfy.
void expect_valid_clustering(const HierarchyView& h, const Graph& g,
                             bool heads_independent) {
  EXPECT_EQ(h.validate(g), "");
  // Every node with at least one neighbour must be affiliated or a head
  // (the schemes produce dominating sets).
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (h.is_head(v)) continue;
    EXPECT_NE(h.cluster_of(v), kNoCluster) << "node " << v << " unaffiliated";
  }
  if (heads_independent) {
    // Capture-style schemes produce an independent set of heads.
    const auto heads = h.heads();
    for (std::size_t i = 0; i < heads.size(); ++i) {
      for (std::size_t j = i + 1; j < heads.size(); ++j) {
        EXPECT_FALSE(g.has_edge(heads[i], heads[j]))
            << "heads " << heads[i] << " and " << heads[j] << " adjacent";
      }
    }
  }
}

TEST(LowestId, StarPicksHub) {
  const Graph g = gen::star(5);
  const HierarchyView h = lowest_id_clustering(g);
  EXPECT_TRUE(h.is_head(0));
  EXPECT_EQ(h.head_count(), 1u);
  expect_valid_clustering(h, g, true);
}

TEST(LowestId, PathAlternates) {
  const Graph g = gen::path(5);  // 0-1-2-3-4
  const HierarchyView h = lowest_id_clustering(g);
  // Scan: 0 heads, captures 1; 2 heads, captures 3; 4 heads.
  EXPECT_TRUE(h.is_head(0));
  EXPECT_TRUE(h.is_head(2));
  EXPECT_TRUE(h.is_head(4));
  EXPECT_EQ(h.cluster_of(1), 0u);
  EXPECT_EQ(h.cluster_of(3), 2u);
  expect_valid_clustering(h, g, true);
}

TEST(LowestId, GatewaysMarkedOnClusterBoundary) {
  const Graph g = gen::path(5);
  const HierarchyView h = lowest_id_clustering(g);
  // Node 1 neighbours head 2 (different cluster) -> gateway; same for 3.
  EXPECT_EQ(h.role(1), NodeRole::kGateway);
  EXPECT_EQ(h.role(3), NodeRole::kGateway);
}

TEST(LowestId, IsolatedNodesBecomeSingletonHeads) {
  Graph g(3);  // no edges
  const HierarchyView h = lowest_id_clustering(g);
  EXPECT_EQ(h.head_count(), 3u);
}

TEST(HighestDegree, PicksHighestDegreeFirst) {
  // Node 3 has the highest degree in this graph.
  Graph g(6, {{3, 0}, {3, 1}, {3, 2}, {3, 4}, {4, 5}});
  const HierarchyView h = highest_degree_clustering(g);
  EXPECT_TRUE(h.is_head(3));
  EXPECT_EQ(h.cluster_of(0), 3u);
  expect_valid_clustering(h, g, true);
}

TEST(HighestDegree, TieBreaksByLowerId) {
  const Graph g = gen::ring(4);  // all degree 2
  const HierarchyView h = highest_degree_clustering(g);
  EXPECT_TRUE(h.is_head(0));
}

TEST(Wcds, ProducesDominatingSet) {
  Rng rng(5);
  const Graph g = gen::random_connected(30, 20, rng);
  const HierarchyView h = wcds_clustering(g);
  EXPECT_EQ(h.validate(g), "");
  for (NodeId v = 0; v < 30; ++v) {
    if (h.is_head(v)) continue;
    // Dominated: has a neighbouring head.
    bool dominated = false;
    for (NodeId u : g.neighbors(v)) dominated |= h.is_head(u);
    EXPECT_TRUE(dominated) << "node " << v;
  }
}

TEST(Wcds, GreedyIsSmallOnStar) {
  const Graph g = gen::star(10);
  const HierarchyView h = wcds_clustering(g);
  EXPECT_EQ(h.head_count(), 1u);
  EXPECT_TRUE(h.is_head(0));
}

TEST(Wcds, HandlesIsolatedNodes) {
  Graph g(4, {{0, 1}});
  const HierarchyView h = wcds_clustering(g);
  EXPECT_EQ(h.validate(g), "");
  EXPECT_TRUE(h.is_head(2) || h.cluster_of(2) != kNoCluster);
  EXPECT_TRUE(h.is_head(3) || h.cluster_of(3) != kNoCluster);
}

TEST(MeasureLHop, FewerThanTwoHeadsIsZero) {
  const Graph g = gen::star(4);
  const HierarchyView h = lowest_id_clustering(g);
  ASSERT_EQ(h.head_count(), 1u);
  EXPECT_EQ(measure_l_hop_connectivity(h, g), 0);
}

TEST(MeasureLHop, ChainOfHeadsThroughGateways) {
  // head 0 - gw 1 - head 2 - gw 3 - head 4 : adjacent heads at distance 2.
  const Graph g = gen::path(5);
  HierarchyView h(5);
  h.set_head(0);
  h.set_head(2);
  h.set_head(4);
  h.set_member(1, 0, true);
  h.set_member(3, 2, true);
  EXPECT_EQ(measure_l_hop_connectivity(h, g), 2);
}

TEST(MeasureLHop, AdjacentHeadsGiveOne) {
  Graph g(2, {{0, 1}});
  HierarchyView h(2);
  h.set_head(0);
  h.set_head(1);
  EXPECT_EQ(measure_l_hop_connectivity(h, g), 1);
}

TEST(MeasureLHop, DisconnectedBackboneIsMinusOne) {
  Graph g(4, {{0, 1}, {2, 3}});
  HierarchyView h(4);
  h.set_head(0);
  h.set_head(2);
  // Members 1 and 3 are NOT gateways: backbone = heads only, disconnected.
  h.set_member(1, 0);
  h.set_member(3, 2);
  EXPECT_EQ(measure_l_hop_connectivity(h, g), -1);
}

TEST(MeasureLHop, PathOnlyThroughMembersDoesNotCount) {
  // Heads 0 and 2 connected through member 1 which is NOT a gateway.
  const Graph g = gen::path(3);
  HierarchyView h(3);
  h.set_head(0);
  h.set_head(2);
  h.set_member(1, 0);  // plain member
  EXPECT_EQ(measure_l_hop_connectivity(h, g), -1);
  h.mark_gateway(1);
  EXPECT_EQ(measure_l_hop_connectivity(h, g), 2);
}

// Property sweep: all three schemes on random connected graphs.
class ClusteringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringProperty, AllSchemesProduceValidDominatingClusterings) {
  Rng rng(GetParam());
  const std::size_t n = 5 + rng.below(60);
  const Graph g = gen::random_connected(n, rng.below(2 * n), rng);
  expect_valid_clustering(lowest_id_clustering(g), g, true);
  expect_valid_clustering(highest_degree_clustering(g), g, true);
  const HierarchyView w = wcds_clustering(g);
  EXPECT_EQ(w.validate(g), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace hinet
