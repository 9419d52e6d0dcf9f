// Intra-cluster routing trees for multi-hop (d-hop) clusters.
//
// In a 1-hop cluster a member reaches its head directly; in the paper's
// future-work d-hop setting (Section VI) uploads must be relayed.  A
// ClusterRouting gives every affiliated node a parent pointer on a BFS
// tree rooted at its cluster head, so member traffic can converge-cast up
// and head traffic diverge-cast down the same tree.
//
// Trees are built per round from the (graph, hierarchy) pair; paths prefer
// same-cluster relays but fall back to any graph path when the cluster is
// not internally connected (d-hop clusterings do not guarantee that the
// shortest member-head path stays inside the cluster).
#pragma once

#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"

namespace hinet {

struct ClusterRouting {
  static constexpr NodeId kNoParent = static_cast<NodeId>(-1);

  /// Parent towards the node's own cluster head.  Heads and unaffiliated
  /// nodes have kNoParent.  A node whose head is unreachable this round
  /// also has kNoParent (it cannot upload).
  std::vector<NodeId> parent;

  /// Hop distance to the own head along the tree (0 for heads, -1 when
  /// unreachable/unaffiliated).
  std::vector<int> depth;

  /// Children per node (inverse of parent), for diverge-cast fan-out
  /// checks.
  std::vector<std::vector<NodeId>> children;

  std::size_t node_count() const { return parent.size(); }
  bool has_parent(NodeId v) const { return parent[v] != kNoParent; }
};

/// Builds the per-round routing for one (graph, hierarchy) pair.
/// Preference order for a member's path: (1) BFS over nodes of its own
/// cluster, (2) BFS over the whole graph.
ClusterRouting build_cluster_routing(const HierarchyView& h, const Graph& g);

/// Precomputed per-round routing; rounds past the last repeat it.
class RoutingSequence {
 public:
  explicit RoutingSequence(std::vector<ClusterRouting> rounds);

  std::size_t node_count() const { return n_; }
  const ClusterRouting& routing_at(Round r) const;
  std::size_t round_count() const { return rounds_.size(); }

 private:
  std::vector<ClusterRouting> rounds_;
  std::size_t n_;
};

/// Precomputes routing for `rounds` rounds of a topology + hierarchy pair.
RoutingSequence build_routing_over(DynamicNetwork& net,
                                   HierarchyProvider& hierarchy,
                                   std::size_t rounds);

}  // namespace hinet
