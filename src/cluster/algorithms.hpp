// Clustering algorithms.
//
// The paper treats clustering as a given ("the clustering procedure can be
// carried out by clustering algorithms, which is out of the scope of this
// paper") — for an executable reproduction we must build it.  Three
// classic 1-hop schemes are provided; all produce a HierarchyView whose
// members are graph neighbours of their heads, matching the paper's
// system-model assumptions, and all then run the same gateway-marking
// pass.
#pragma once

#include "cluster/hierarchy.hpp"
#include "graph/graph.hpp"

namespace hinet {

/// Lowest-ID clustering (Gerla & Tsai's DCA): scanning ids upward, an
/// undecided node becomes a head iff it has no decided head neighbour with
/// a smaller id; other undecided neighbours join the new head.  The result
/// is an independent dominating set of heads.
HierarchyView lowest_id_clustering(const Graph& g);

/// Highest-degree (connectivity-based) clustering: nodes are scanned in
/// (degree desc, id asc) order; an undecided node becomes a head and
/// captures its undecided neighbours.
HierarchyView highest_degree_clustering(const Graph& g);

/// Greedy weakly-connected dominating set clustering (Han & Jia style):
/// heads are chosen greedily by uncovered-neighbour count until the set
/// dominates the graph; every non-head then affiliates with its
/// lowest-id neighbouring head.
HierarchyView wcds_clustering(const Graph& g);

/// Gateway selection per the paper's system model: "cluster heads may be
/// connected via ordinary nodes along a path selected by the routing
/// protocol"; only the nodes on the selected path are gateways.  For every
/// pair of clusters joined by at least one edge, selects the cheapest
/// bridge — a direct head-head edge (no gateway), one member adjacent to
/// both heads (1 gateway), or a member-member edge (2 gateways) — which
/// realises the paper's observation that L <= 3 in a 1-hop clustered
/// network.  Expects a freshly built view (no gateways marked yet).
void select_sparse_gateways(HierarchyView& h, const Graph& g);

/// Maximum over head pairs (u, v) adjacent in the "cluster adjacency"
/// sense of the shortest backbone path between them, i.e. the paper's
/// Definition 6 L measured on heads+gateways.  Returns 0 when fewer than
/// two heads exist and -1 when some pair of heads is backbone-disconnected.
int measure_l_hop_connectivity(const HierarchyView& h, const Graph& g);

}  // namespace hinet
