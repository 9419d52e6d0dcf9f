#include "cluster/routing.hpp"

#include <queue>

namespace hinet {

namespace {

/// BFS from `head` over nodes allowed by `mask` (or all nodes when mask is
/// empty), writing parents/depths for nodes in the head's cluster that are
/// still unassigned.
void bfs_assign(const Graph& g, const HierarchyView& h, NodeId head,
                const std::vector<char>& mask, ClusterRouting& out) {
  const std::size_t n = g.node_count();
  std::vector<int> dist(n, -1);
  std::vector<NodeId> par(n, ClusterRouting::kNoParent);
  std::queue<NodeId> q;
  dist[head] = 0;
  q.push(head);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] >= 0) continue;
      if (!mask.empty() && !mask[v]) continue;
      dist[v] = dist[u] + 1;
      par[v] = u;
      q.push(v);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v == head) continue;
    if (h.cluster_of(v) != head) continue;
    if (out.parent[v] != ClusterRouting::kNoParent) continue;  // already set
    if (dist[v] > 0) {
      out.parent[v] = par[v];
      out.depth[v] = dist[v];
    }
  }
}

}  // namespace

ClusterRouting build_cluster_routing(const HierarchyView& h, const Graph& g) {
  HINET_REQUIRE(h.node_count() == g.node_count(),
                "hierarchy/graph node count mismatch");
  const std::size_t n = g.node_count();
  ClusterRouting out;
  out.parent.assign(n, ClusterRouting::kNoParent);
  out.depth.assign(n, -1);
  out.children.assign(n, {});

  for (NodeId head : h.heads()) {
    out.depth[head] = 0;
    // Pass 1: stay inside the cluster (head + its own members/gateways).
    std::vector<char> mask(n, 0);
    for (NodeId v : h.members_of(head)) mask[v] = 1;
    bfs_assign(g, h, head, mask, out);
    // Pass 2: any remaining member routes over arbitrary relays.
    bfs_assign(g, h, head, {}, out);
  }

  for (NodeId v = 0; v < n; ++v) {
    if (out.parent[v] != ClusterRouting::kNoParent) {
      out.children[out.parent[v]].push_back(v);
    }
  }
  return out;
}

RoutingSequence::RoutingSequence(std::vector<ClusterRouting> rounds)
    : rounds_(std::move(rounds)) {
  HINET_REQUIRE(!rounds_.empty(), "RoutingSequence needs at least one round");
  n_ = rounds_.front().node_count();
  for (const auto& r : rounds_) {
    HINET_REQUIRE(r.node_count() == n_,
                  "all routing rounds must share the node set");
  }
}

const ClusterRouting& RoutingSequence::routing_at(Round r) const {
  if (r >= rounds_.size()) return rounds_.back();
  return rounds_[r];
}

RoutingSequence build_routing_over(DynamicNetwork& net,
                                   HierarchyProvider& hierarchy,
                                   std::size_t rounds) {
  HINET_REQUIRE(rounds >= 1, "need at least one round");
  std::vector<ClusterRouting> out;
  out.reserve(rounds);
  for (Round r = 0; r < rounds; ++r) {
    out.push_back(
        build_cluster_routing(hierarchy.hierarchy_at(r), net.graph_at(r)));
  }
  return RoutingSequence(std::move(out));
}

}  // namespace hinet
