#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace hinet {
namespace {

TEST(Edge, CanonicalOrder) {
  const Edge e = make_edge(5, 2);
  EXPECT_EQ(e.u, 2u);
  EXPECT_EQ(e.v, 5u);
  EXPECT_THROW(make_edge(3, 3), PreconditionError);
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.diameter(), 0);
}

TEST(Graph, AddRemoveEdges) {
  // Duplicates collapse whichever orientation they are given in.
  const Graph g(4, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  // Leaving the edge out of the list builds the edgeless graph.
  const Graph none(4, {});
  EXPECT_FALSE(none.has_edge(0, 1));
  EXPECT_FALSE(none.has_edge(1, 0));
  EXPECT_EQ(none.edge_count(), 0u);
  EXPECT_TRUE(none == Graph(4));
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph(3, {{1, 1}}), PreconditionError);
}

TEST(Graph, OutOfRangeRejected) {
  EXPECT_THROW(Graph(3, {{0, 3}}), PreconditionError);
  EXPECT_THROW(Graph(3, {{3, 0}}), PreconditionError);
  const Graph g(3);
  EXPECT_THROW(g.has_edge(9, 0), PreconditionError);
  EXPECT_THROW(g.has_edge(0, 9), PreconditionError);
  EXPECT_THROW(g.neighbors(3), PreconditionError);
}

TEST(Graph, NeighborsAreSorted) {
  const Graph g(5, {{2, 4}, {2, 0}, {3, 2}});
  const auto n = g.neighbors(2);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(n[1], 3u);
  EXPECT_EQ(n[2], 4u);
  EXPECT_EQ(g.degree(2), 3u);
}

TEST(Graph, EdgeListSorted) {
  Graph g(4, {{2, 3}, {0, 1}, {0, 2}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 3}));
}

TEST(Graph, BfsDistancesOnPath) {
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto d = g.distances_from(0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(g.distance(0, 4), 4);
  EXPECT_EQ(g.distance(4, 0), 4);
}

TEST(Graph, UnreachableDistanceIsMinusOne) {
  Graph g(4, {{0, 1}});
  EXPECT_EQ(g.distance(0, 3), -1);
  const auto d = g.distances_from(0);
  EXPECT_EQ(d[2], -1);
}

TEST(Graph, ConnectivityDetection) {
  const Graph g(4, {{0, 1}, {1, 2}});
  EXPECT_FALSE(g.is_connected());
  const Graph joined(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(joined.is_connected());
}

TEST(Graph, SingleNodeConnected) {
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(Graph, ConnectedSubsetChecksInducedEdgesOnly) {
  // 0-1-2 path; subset {0, 2} is NOT connected without node 1.
  Graph g(3, {{0, 1}, {1, 2}});
  const std::vector<NodeId> both_ends{0, 2};
  EXPECT_FALSE(g.is_connected_subset(both_ends));
  const std::vector<NodeId> all{0, 1, 2};
  EXPECT_TRUE(g.is_connected_subset(all));
  const std::vector<NodeId> empty;
  EXPECT_TRUE(g.is_connected_subset(empty));
  const std::vector<NodeId> one{2};
  EXPECT_TRUE(g.is_connected_subset(one));
}

TEST(Graph, ComponentsLabeling) {
  Graph g(5, {{0, 1}, {3, 4}});
  const auto c = g.components();
  EXPECT_EQ(c[0], c[1]);
  EXPECT_EQ(c[3], c[4]);
  EXPECT_NE(c[0], c[2]);
  EXPECT_NE(c[0], c[3]);
  EXPECT_NE(c[2], c[3]);
}

TEST(Graph, DiameterOfPathAndCycle) {
  Graph path(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(path.diameter(), 3);
  Graph cycle(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(cycle.diameter(), 2);
  Graph disconnected(3, {{0, 1}});
  EXPECT_EQ(disconnected.diameter(), -1);
}

TEST(Graph, IntersectionAndUnion) {
  Graph a(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph b(4, {{1, 2}, {2, 3}, {0, 3}});
  const Graph inter = Graph::intersection(a, b);
  EXPECT_EQ(inter.edge_count(), 2u);
  EXPECT_TRUE(inter.has_edge(1, 2));
  EXPECT_TRUE(inter.has_edge(2, 3));
  const Graph uni = Graph::union_of(a, b);
  EXPECT_EQ(uni.edge_count(), 4u);
  EXPECT_TRUE(uni.has_edge(0, 3));
}

TEST(Graph, IntersectionNodeCountMismatchThrows) {
  EXPECT_THROW(Graph::intersection(Graph(3), Graph(4)), PreconditionError);
}

TEST(Graph, ContainsSubgraph) {
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph sub(4, {{1, 2}});
  EXPECT_TRUE(g.contains_subgraph(sub));
  const Graph wider(4, {{1, 2}, {0, 3}});
  EXPECT_FALSE(g.contains_subgraph(wider));
}

TEST(Graph, EqualityIsStructural) {
  const Graph a(3, {{0, 1}});
  const Graph b(3, {{1, 0}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == Graph(3));
  EXPECT_FALSE(Graph(3) == Graph(4));
}

/// The reference with_edges must reproduce: one rebuild from the
/// concatenated edge list.
Graph rebuilt(const Graph& base, const std::vector<Edge>& extra) {
  std::vector<Edge> all = base.edges();
  all.insert(all.end(), extra.begin(), extra.end());
  return Graph(base.node_count(), all);
}

TEST(Graph, WithEdgesEqualsARebuildOnRandomInputs) {
  Rng rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + rng.below(30);
    // Sparse bases leave rows empty; denser ones touch nearly every row.
    const std::size_t m = rng.below(trial % 2 == 0 ? n : 3 * n);
    std::vector<Edge> base_edges;
    for (std::size_t e = 0; e < m; ++e) {
      const auto x = static_cast<NodeId>(rng.below(n));
      const auto y = static_cast<NodeId>(rng.below(n));
      if (x != y) base_edges.push_back({x, y});
    }
    const Graph base(n, base_edges);
    const std::vector<Edge> present = base.edges();

    // Extras mix fresh pairs, edges the base already has and repeats of
    // earlier extras, each in either orientation.
    std::vector<Edge> extra;
    const std::size_t k = rng.below(12);
    for (std::size_t e = 0; e < k; ++e) {
      Edge x{};
      const std::uint64_t kind = rng.below(3);
      if (kind == 0 && !present.empty()) {
        x = rng.pick(present);
      } else if (kind == 1 && !extra.empty()) {
        x = rng.pick(extra);
      } else {
        x = {static_cast<NodeId>(rng.below(n)),
             static_cast<NodeId>(rng.below(n))};
        if (x.u == x.v) continue;
      }
      if (rng.bernoulli(0.5)) std::swap(x.u, x.v);
      extra.push_back(x);
    }
    EXPECT_TRUE(Graph::with_edges(base, extra) == rebuilt(base, extra))
        << "trial " << trial;
  }
}

TEST(Graph, WithEdgesMergesBoundaryAndEmptyRows) {
  // Rows 0 and 5 (the first and last node) are empty in the base; row 2
  // gains a neighbour between two it already has.
  const Graph base(6, {{1, 2}, {2, 4}, {3, 4}});
  const std::vector<Edge> extra = {{0, 5}, {5, 0}, {2, 3}, {4, 2}, {1, 0}};
  const Graph g = Graph::with_edges(base, extra);
  EXPECT_TRUE(g == rebuilt(base, extra));
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(0).begin(), g.neighbors(0).end()),
            (std::vector<NodeId>{1, 5}));
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(2).begin(), g.neighbors(2).end()),
            (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(5).begin(), g.neighbors(5).end()),
            (std::vector<NodeId>{0}));

  // Nothing new, or only edges the base has: the base itself.
  EXPECT_TRUE(Graph::with_edges(base, {}) == base);
  const std::vector<Edge> present = {{4, 2}, {2, 1}};
  EXPECT_TRUE(Graph::with_edges(base, present) == base);

  // A single node can take no edge at all.
  const Graph one(1);
  EXPECT_TRUE(Graph::with_edges(one, {}) == one);
  EXPECT_EQ(Graph::with_edges(one, {}).node_count(), 1u);
}

TEST(Graph, WithEdgesRejectsWhatTheConstructorRejects) {
  const Graph base(3, {{0, 1}});
  const std::vector<Edge> self_loop = {{1, 2}, {2, 2}};
  const std::vector<Edge> past_end = {{0, 3}};
  const std::vector<Edge> past_end_first = {{3, 0}};
  EXPECT_THROW(Graph::with_edges(base, self_loop), PreconditionError);
  EXPECT_THROW(Graph::with_edges(base, past_end), PreconditionError);
  EXPECT_THROW(Graph::with_edges(base, past_end_first), PreconditionError);
  const std::vector<Edge> any = {{0, 1}};
  EXPECT_THROW(Graph::with_edges(Graph(1), any), PreconditionError);
}

/// The reference edited must reproduce: one rebuild from the base's edges
/// without the removed ones, plus the added ones.
Graph rebuilt(const Graph& base, const std::vector<Edge>& removed,
              const std::vector<Edge>& added) {
  std::vector<Edge> cut;
  for (const Edge& r : removed) cut.push_back(make_edge(r.u, r.v));
  std::sort(cut.begin(), cut.end());
  std::vector<Edge> all;
  for (const Edge& e : base.edges()) {
    if (!std::binary_search(cut.begin(), cut.end(), e)) all.push_back(e);
  }
  all.insert(all.end(), added.begin(), added.end());
  return Graph(base.node_count(), all);
}

TEST(Graph, EditEqualsARebuildOnRandomInputs) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + rng.below(30);
    // Sparse bases leave rows empty; denser ones touch nearly every row.
    const std::size_t m = rng.below(trial % 2 == 0 ? n : 3 * n);
    std::vector<Edge> base_edges;
    for (std::size_t e = 0; e < m; ++e) {
      const auto x = static_cast<NodeId>(rng.below(n));
      const auto y = static_cast<NodeId>(rng.below(n));
      if (x != y) base_edges.push_back({x, y});
    }
    const Graph base(n, base_edges);
    const std::vector<Edge> present = base.edges();

    // Removals are edges the base has, some repeated; additions mix fresh
    // pairs, edges the base keeps, re-additions of removed edges and
    // repeats.  Each comes in either orientation.
    const auto flipped = [&](Edge e) {
      if (rng.bernoulli(0.5)) std::swap(e.u, e.v);
      return e;
    };
    std::vector<Edge> removed;
    const std::size_t cuts = present.empty() ? 0 : rng.below(10);
    for (std::size_t e = 0; e < cuts; ++e) {
      removed.push_back(flipped(rng.pick(present)));
    }
    std::vector<Edge> added;
    const std::size_t puts = rng.below(10);
    for (std::size_t e = 0; e < puts; ++e) {
      const std::uint64_t kind = rng.below(4);
      if (kind == 0 && !present.empty()) {
        added.push_back(flipped(rng.pick(present)));
      } else if (kind == 1 && !removed.empty()) {
        added.push_back(flipped(rng.pick(removed)));
      } else if (kind == 2 && !added.empty()) {
        added.push_back(flipped(rng.pick(added)));
      } else {
        const Edge x{static_cast<NodeId>(rng.below(n)),
                     static_cast<NodeId>(rng.below(n))};
        if (x.u != x.v) added.push_back(x);
      }
    }
    EXPECT_TRUE(Graph::edited(base, removed, added) ==
                rebuilt(base, removed, added))
        << "trial " << trial;
  }
}

TEST(Graph, EditOfThousandsOfEdgesEqualsARebuild) {
  // Lists of thousands of edges, over ids that use three bytes, given in
  // row order and in random order: a member-to-head swap per moved node,
  // as a (T, L)-HiNet phase derives the next.
  Rng rng(31);
  const std::size_t n = 70000;
  const std::size_t heads = 500;
  std::vector<Edge> edges;
  std::vector<NodeId> head_of(n);
  for (NodeId v = heads; v < n; ++v) {
    head_of[v] = static_cast<NodeId>(rng.below(heads));
    edges.push_back({v, head_of[v]});
  }
  const Graph base(n, edges);
  std::vector<Edge> removed;
  std::vector<Edge> added;
  for (NodeId v = heads; v < n; ++v) {
    if (!rng.bernoulli(0.05)) continue;
    const auto target = static_cast<NodeId>(rng.below(heads));
    removed.push_back({v, head_of[v]});
    added.push_back({target, v});
  }
  ASSERT_GT(removed.size(), 1000u);
  EXPECT_TRUE(Graph::edited(base, removed, added) ==
              rebuilt(base, removed, added));
  rng.shuffle(removed);
  rng.shuffle(added);
  EXPECT_TRUE(Graph::edited(base, removed, added) ==
              rebuilt(base, removed, added));
}

TEST(Graph, EditSwapsEdgesInBoundaryAndEmptyRows) {
  // The first and last rows both lose and gain an edge, row 3 empties,
  // and {1, 2} is removed and re-added.
  const Graph base(6, {{0, 1}, {1, 2}, {2, 4}, {3, 4}, {4, 5}});
  const std::vector<Edge> removed = {{1, 0}, {3, 4}, {1, 2}, {5, 4}};
  const std::vector<Edge> added = {{0, 5}, {2, 1}, {0, 2}};
  const Graph g = Graph::edited(base, removed, added);
  EXPECT_TRUE(g == rebuilt(base, removed, added));
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(0).begin(), g.neighbors(0).end()),
            (std::vector<NodeId>{2, 5}));
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(2).begin(), g.neighbors(2).end()),
            (std::vector<NodeId>{0, 1, 4}));
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(std::vector<NodeId>(g.neighbors(5).begin(), g.neighbors(5).end()),
            (std::vector<NodeId>{0}));

  // Removing every edge leaves the edgeless graph; removing nothing and
  // adding nothing leaves the base.
  EXPECT_TRUE(Graph::edited(base, base.edges(), {}) == Graph(6));
  EXPECT_TRUE(Graph::edited(base, {}, {}) == base);
}

TEST(Graph, EditRejectsAnAbsentRemoval) {
  // Rows: 0 {3}, 1 {2, 4}, 2 {1}, 3 {0}, 4 {1}, 5 {}.
  const Graph base(6, {{1, 2}, {1, 4}, {0, 3}});
  const std::vector<Edge> before_row = {{0, 1}};   // 1 sorts before row 0's 3
  const std::vector<Edge> inside_row = {{1, 3}};   // between row 1's 2 and 4
  const std::vector<Edge> after_row = {{2, 4}};    // past row 2's last, 1
  const std::vector<Edge> empty_rows = {{5, 3}};  // row 5 has no arc at all
  for (const auto& absent : {before_row, inside_row, after_row, empty_rows}) {
    EXPECT_THROW(Graph::edited(base, absent, {}), PreconditionError);
    // Removal applies to the base: adding the edge too does not help.
    EXPECT_THROW(Graph::edited(base, absent, absent), PreconditionError);
  }
  // Removing an edge twice in one edit is removing it once.
  const std::vector<Edge> twice = {{1, 2}, {2, 1}};
  EXPECT_TRUE(Graph::edited(base, twice, {}) ==
              Graph(6, {{1, 4}, {0, 3}}));
  // The constructor's preconditions hold for both lists.
  const std::vector<Edge> self_loop = {{2, 2}};
  const std::vector<Edge> past_end = {{0, 6}};
  EXPECT_THROW(Graph::edited(base, self_loop, {}), PreconditionError);
  EXPECT_THROW(Graph::edited(base, past_end, {}), PreconditionError);
  EXPECT_THROW(Graph::edited(base, {}, past_end), PreconditionError);
}

TEST(Graph, ConcurrentReadsOfAFreshGraphAgree) {
  // A graph is immutable once built, so threads may share one read-only
  // without synchronisation; none of the queries below may write.
  Rng rng(17);
  std::vector<Edge> edges;
  for (int e = 0; e < 400; ++e) {
    const auto x = static_cast<NodeId>(rng.below(100));
    const auto y = static_cast<NodeId>(rng.below(100));
    if (x != y) edges.push_back({x, y});
  }
  const Graph g(100, edges);
  constexpr int kThreads = 4;
  std::vector<std::size_t> arc_sums(kThreads, 0);
  std::vector<std::vector<int>> distances(kThreads);
  std::vector<std::vector<Edge>> listed(kThreads);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        for (NodeId u : g.neighbors(v)) arc_sums[i] += g.has_edge(u, v);
      }
      distances[i] = g.distances_from(0);
      listed[i] = g.edges();
    });
  }
  for (std::thread& r : readers) r.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(arc_sums[i], 2 * g.edge_count());
    EXPECT_EQ(distances[i], distances[0]);
    EXPECT_EQ(listed[i], listed[0]);
  }
}

TEST(RestrictedDistances, HonorsMask) {
  // Path 0-1-2-3; forbid node 1: 0 cannot reach 2.
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<char> mask{1, 0, 1, 1};
  const auto d = restricted_distances(g, 0, mask);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], -1);
  EXPECT_EQ(d[2], -1);
  EXPECT_EQ(d[3], -1);
}

TEST(RestrictedDistances, SourceOutsideMaskIsAllUnreachable) {
  Graph g(3, {{0, 1}, {1, 2}});
  std::vector<char> mask{0, 1, 1};
  const auto d = restricted_distances(g, 0, mask);
  EXPECT_EQ(d[0], -1);
  EXPECT_EQ(d[1], -1);
}

TEST(RestrictedDistances, MaskSizeMismatchThrows) {
  Graph g(3);
  std::vector<char> mask{1, 1};
  EXPECT_THROW(restricted_distances(g, 0, mask), PreconditionError);
}

TEST(GraphProperty, IntersectionIsSubgraphOfBoth) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Edge> a_edges;
    std::vector<Edge> b_edges;
    for (int e = 0; e < 40; ++e) {
      const auto x = static_cast<NodeId>(rng.below(20));
      const auto y = static_cast<NodeId>(rng.below(20));
      if (x == y) continue;
      if (rng.bernoulli(0.5)) a_edges.push_back({x, y});
      if (rng.bernoulli(0.5)) b_edges.push_back({x, y});
    }
    const Graph a(20, a_edges);
    const Graph b(20, b_edges);
    const Graph inter = Graph::intersection(a, b);
    EXPECT_TRUE(a.contains_subgraph(inter));
    EXPECT_TRUE(b.contains_subgraph(inter));
    const Graph uni = Graph::union_of(a, b);
    EXPECT_TRUE(uni.contains_subgraph(a));
    EXPECT_TRUE(uni.contains_subgraph(b));
  }
}

TEST(GraphProperty, EdgeListOrderOrientationAndDuplicatesDoNotMatter) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.below(40);
    std::vector<Edge> edges;
    const std::size_t m = rng.below(3 * n);
    for (std::size_t e = 0; e < m; ++e) {
      const auto x = static_cast<NodeId>(rng.below(n));
      const auto y = static_cast<NodeId>(rng.below(n));
      if (x != y) edges.push_back({x, y});
    }
    const Graph g(n, edges);

    // The same edge set, shuffled, with some edges flipped and some given
    // twice, must build the same graph.
    std::vector<Edge> scrambled = edges;
    for (const Edge& e : edges) {
      if (rng.bernoulli(0.3)) scrambled.push_back(e);
    }
    for (Edge& e : scrambled) {
      if (rng.bernoulli(0.5)) std::swap(e.u, e.v);
    }
    rng.shuffle(scrambled);
    EXPECT_TRUE(Graph(n, scrambled) == g) << "trial " << trial;

    std::size_t degree_sum = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto row = g.neighbors(v);
      for (std::size_t i = 1; i < row.size(); ++i) {
        EXPECT_LT(row[i - 1], row[i]) << "row " << v << " not strictly sorted";
      }
      for (NodeId u : row) EXPECT_TRUE(g.has_edge(u, v));
      degree_sum += g.degree(v);
    }
    EXPECT_EQ(degree_sum, 2 * g.edge_count());
    for (const Edge& e : edges) {
      EXPECT_TRUE(g.has_edge(e.u, e.v));
      EXPECT_TRUE(g.has_edge(e.v, e.u));
    }
    EXPECT_TRUE(Graph(n, g.edges()) == g);
  }
}

}  // namespace
}  // namespace hinet
