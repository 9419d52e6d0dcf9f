#include "cluster/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

namespace hinet {

namespace {

/// Greedy capture used by both id- and degree-ordered schemes: scan nodes
/// in `order`; an undecided node becomes a head and captures all of its
/// undecided neighbours as members.
HierarchyView capture_clustering(const Graph& g,
                                 const std::vector<NodeId>& order) {
  HierarchyView h(g.node_count());
  std::vector<char> decided(g.node_count(), 0);
  for (NodeId v : order) {
    if (decided[v]) continue;
    h.set_head(v);
    decided[v] = 1;
    for (NodeId u : g.neighbors(v)) {
      if (!decided[u]) {
        h.set_member(u, v);
        decided[u] = 1;
      }
    }
  }
  return h;
}

}  // namespace

HierarchyView lowest_id_clustering(const Graph& g) {
  std::vector<NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), 0);
  HierarchyView h = capture_clustering(g, order);
  select_sparse_gateways(h, g);
  return h;
}

HierarchyView highest_degree_clustering(const Graph& g) {
  std::vector<NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  HierarchyView h = capture_clustering(g, order);
  select_sparse_gateways(h, g);
  return h;
}

HierarchyView wcds_clustering(const Graph& g) {
  const std::size_t n = g.node_count();
  HierarchyView h(n);
  if (n == 0) return h;

  // Greedy dominating set: repeatedly take the node covering the most
  // still-uncovered nodes (itself included); ties break towards lower id.
  std::vector<char> covered(n, 0);
  std::vector<char> is_head(n, 0);
  std::size_t uncovered = n;
  while (uncovered > 0) {
    NodeId best = 0;
    std::size_t best_gain = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (is_head[v]) continue;
      std::size_t gain = covered[v] ? 0u : 1u;
      for (NodeId u : g.neighbors(v)) {
        if (!covered[u]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    HINET_ENSURE(best_gain > 0, "greedy dominating set stalled");
    is_head[best] = 1;
    if (!covered[best]) {
      covered[best] = 1;
      --uncovered;
    }
    for (NodeId u : g.neighbors(best)) {
      if (!covered[u]) {
        covered[u] = 1;
        --uncovered;
      }
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    if (is_head[v]) h.set_head(v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (is_head[v]) continue;
    // Affiliate with the lowest-id neighbouring head; the set dominates
    // the graph so one exists unless v is isolated.
    for (NodeId u : g.neighbors(v)) {
      if (is_head[u]) {
        h.set_member(v, u);
        break;
      }
    }
    if (h.cluster_of(v) == kNoCluster && g.degree(v) == 0) {
      h.set_head(v);  // isolated nodes head their own singleton cluster
    }
  }
  select_sparse_gateways(h, g);
  return h;
}

void select_sparse_gateways(HierarchyView& h, const Graph& g) {
  struct Bridge {
    int cost = 3;  // worse than any real option
    NodeId first = kNoCluster;
    NodeId second = kNoCluster;
  };
  std::map<std::pair<ClusterId, ClusterId>, Bridge> best;

  for (NodeId u = 0; u < g.node_count(); ++u) {
    const ClusterId cu = h.cluster_of(u);
    if (cu == kNoCluster) continue;
    for (NodeId v : g.neighbors(u)) {
      if (v < u) continue;  // each edge once
      const ClusterId cv = h.cluster_of(v);
      if (cv == kNoCluster || cv == cu) continue;

      Bridge cand;
      const bool uh = h.is_head(u);
      const bool vh = h.is_head(v);
      if (uh && vh) {
        cand.cost = 0;  // heads are direct neighbours: no gateway needed
      } else if (uh) {
        cand.cost = 1;
        cand.first = v;
      } else if (vh) {
        cand.cost = 1;
        cand.first = u;
      } else {
        cand.cost = 2;
        cand.first = u;
        cand.second = v;
      }
      const auto key = cu < cv ? std::make_pair(cu, cv)
                               : std::make_pair(cv, cu);
      Bridge& cur = best[key];
      const auto rank = [](const Bridge& b) {
        return std::make_tuple(b.cost, b.first, b.second);
      };
      if (rank(cand) < rank(cur)) cur = cand;
    }
  }

  for (const auto& [key, bridge] : best) {
    if (bridge.first != kNoCluster) h.mark_gateway(bridge.first);
    if (bridge.second != kNoCluster) h.mark_gateway(bridge.second);
  }
}

int measure_l_hop_connectivity(const HierarchyView& h, const Graph& g) {
  const std::vector<NodeId> heads = h.heads();
  if (heads.size() < 2) return 0;

  std::vector<char> backbone_mask(g.node_count(), 0);
  for (NodeId v : h.backbone()) backbone_mask[v] = 1;

  // Pairwise backbone-restricted distances between heads.
  const std::size_t m = heads.size();
  std::vector<std::vector<int>> dist(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto d = restricted_distances(g, heads[i], backbone_mask);
    dist[i].resize(m);
    for (std::size_t j = 0; j < m; ++j) dist[i][j] = d[heads[j]];
  }

  // Definition 6 asks for the smallest L such that every nonempty proper
  // subset S of heads has some outside head within distance L — i.e. the
  // bottleneck of the minimum bottleneck spanning tree over head-to-head
  // backbone distances.  Prim's algorithm, tracking the max edge used.
  std::vector<int> best(m, std::numeric_limits<int>::max());
  std::vector<char> in_tree(m, 0);
  if (best.empty()) return 0;  // m >= 2 here; keeps -Wnull-dereference provable
  best[0] = 0;
  int bottleneck = 0;
  for (std::size_t it = 0; it < m; ++it) {
    std::size_t pick = m;
    for (std::size_t i = 0; i < m; ++i) {
      if (!in_tree[i] && (pick == m || best[i] < best[pick])) pick = i;
    }
    // pick == m cannot happen (each iteration adds exactly one node, so an
    // un-treed candidate always exists), but the guard makes that invariant
    // explicit for readers and the optimizer alike.
    if (pick == m || best[pick] == std::numeric_limits<int>::max()) return -1;
    in_tree[pick] = 1;
    bottleneck = std::max(bottleneck, best[pick]);
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && dist[pick][j] >= 0) {
        best[j] = std::min(best[j], dist[pick][j]);
      }
    }
  }
  return bottleneck;
}

}  // namespace hinet
