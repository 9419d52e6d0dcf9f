// Static undirected graph with the queries the dynamic-network layer needs:
// BFS distances, connectivity (whole graph and induced subsets), diameter,
// and per-round set algebra (intersection/union) used by the T-interval
// connectivity checker.
//
// Representation: one CSR (compressed sparse row) array pair, never changed
// after it is built.  The neighbours of v are neighbors_[offsets_[v] ..
// offsets_[v+1]), sorted and unique, so neighbour iteration walks
// contiguous memory and has_edge is a binary search in one row.  There are
// two ways to build one: from an edge list (the constructor, a counting
// sort), or as an edit of an existing graph that removes some edges and
// adds others (edited, a linear merge that copies the untouched rows as
// blocks; with_edges is its no-removal case).  The edit is how a graph
// that differs from a longer-lived one in a few edges is emitted: a
// (T, L)-HiNet round is its phase's stable edges plus that round's churn,
// and a phase on an unchanged backbone is the previous phase's stable
// edges with each re-affiliated member's head edge swapped.  A dynamic
// network is one static graph per round, built once and then only read:
// there are no edge mutators and no lazily refreshed caches, so a Graph is
// safe to share read-only across threads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace hinet {

/// Node identifier; nodes of an n-node graph are exactly 0..n-1.
using NodeId = std::uint32_t;

/// An undirected edge.  make_edge and Graph::edges() give it with u < v;
/// the Graph constructor accepts either orientation.
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Canonicalises an unordered pair into an Edge (u < v).
Edge make_edge(NodeId a, NodeId b);

class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph on n nodes.
  explicit Graph(std::size_t n);

  /// Creates a graph from an edge list: the only way to build a graph
  /// with edges.  Edges may come in any order and either orientation;
  /// duplicates are dropped.  Self-loops and endpoints >= n are rejected
  /// with PreconditionError.
  Graph(std::size_t n, const std::vector<Edge>& edges);

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;  // empty: moved-from
  }
  std::size_t edge_count() const { return neighbors_.size() / 2; }

  /// Returns `base` without the `removed` edges and with the `added` ones:
  /// exactly Graph(n, base.edges() - removed + added), with the
  /// constructor's preconditions, in one linear pass.  Each list is sorted
  /// and deduplicated, rows neither touches are copied as blocks with
  /// shifted offsets, and only the touched rows are merged, so beyond that
  /// copy the cost grows with the lists, not with n.  An edge in both lists
  /// ends up present.  Removing an edge `base` lacks is a
  /// PreconditionError.
  static Graph edited(const Graph& base, std::span<const Edge> removed,
                      std::span<const Edge> added);

  /// Returns `base` plus the `extra` edges: edited(base, {}, extra).
  static Graph with_edges(const Graph& base, std::span<const Edge> extra) {
    return edited(base, {}, extra);
  }

  /// Membership test: binary search in a's neighbour row.
  bool has_edge(NodeId a, NodeId b) const;

  /// Sorted neighbour list of v as a span into the flat neighbour array;
  /// valid for the lifetime of the graph.
  std::span<const NodeId> neighbors(NodeId v) const {
    check_node(v);
    return std::span<const NodeId>(neighbors_.data() + offsets_[v],
                                   offsets_[v + 1] - offsets_[v]);
  }

  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// All edges with u < v, sorted lexicographically.
  std::vector<Edge> edges() const;

  /// BFS distances from `source`; unreachable nodes get -1.
  std::vector<int> distances_from(NodeId source) const;

  /// Hop distance between two nodes, or -1 if disconnected.
  int distance(NodeId a, NodeId b) const;

  /// True when the graph is connected over all of its nodes.  An empty
  /// graph and a single-node graph are connected.
  bool is_connected() const;

  /// True when the subgraph induced by `subset` is connected (edges must
  /// stay inside the subset).  An empty subset is connected.
  bool is_connected_subset(std::span<const NodeId> subset) const;

  /// Connected-component label per node (labels are 0-based, assigned in
  /// node order).
  std::vector<std::uint32_t> components() const;

  /// Longest shortest path over the whole graph, or -1 if disconnected.
  int diameter() const;

  /// Edge-wise intersection of two graphs on the same node set.
  static Graph intersection(const Graph& a, const Graph& b);

  /// Edge-wise union of two graphs on the same node set:
  /// with_edges(a, b.edges()).
  static Graph union_of(const Graph& a, const Graph& b);

  /// True when every edge of `sub` is also an edge of *this.
  bool contains_subgraph(const Graph& sub) const;

  /// Multi-line adjacency dump for examples and debugging.
  std::string to_string() const;

  friend bool operator==(const Graph& a, const Graph& b) {
    return a.offsets_ == b.offsets_ && a.neighbors_ == b.neighbors_;
  }

 private:
  void check_node(NodeId v) const {
    HINET_REQUIRE(v < node_count(), "node id out of range");
  }

  std::vector<std::uint32_t> offsets_{0};  ///< n + 1 row starts
  std::vector<NodeId> neighbors_;          ///< 2m entries, rows sorted
};

/// BFS distances from `source` restricted to the subgraph induced by
/// `allowed` (a node-indexed membership mask).  Nodes outside the mask or
/// unreachable get -1.  Used to measure L-hop cluster-head connectivity
/// along backbone (head/gateway) nodes only.
std::vector<int> restricted_distances(const Graph& g, NodeId source,
                                      std::span<const char> allowed);

}  // namespace hinet
