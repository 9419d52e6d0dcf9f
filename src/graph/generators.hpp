// Static graph generators: deterministic topologies plus seeded random
// families.  These are the building blocks the dynamic generators compose
// per round.
#pragma once

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace hinet {
namespace gen {

/// Path 0-1-2-...-(n-1).
Graph path(std::size_t n);

/// Cycle on n >= 3 nodes.
Graph ring(std::size_t n);

/// Star with node 0 as the hub.
Graph star(std::size_t n);

/// Complete graph K_n.
Graph complete(std::size_t n);

/// 2-D grid of rows x cols nodes (node id = r*cols + c).
Graph grid(std::size_t rows, std::size_t cols);

/// Erdős–Rényi G(n, p): every pair independently with probability p.
Graph erdos_renyi(std::size_t n, double p, Rng& rng);

/// Uniform random labelled tree on n nodes (random Prüfer sequence), the
/// canonical minimal connected spanning subgraph for adversarial traces.
Graph random_tree(std::size_t n, Rng& rng);

/// Random connected graph: random tree plus `extra_edges` additional
/// uniformly random non-tree edges (clamped to the complete graph).
Graph random_connected(std::size_t n, std::size_t extra_edges, Rng& rng);

/// Appends `count` uniformly random node pairs to `edges`, skipping
/// self-loop draws; duplicates are left for the Graph constructor to drop.
/// Draws nothing when n < 2.  The per-round churn of the dynamic
/// generators.
void append_churn_edges(std::vector<Edge>& edges, std::size_t n,
                        std::size_t count, Rng& rng);

/// Random geometric graph on the unit square: nodes at `points`, edge when
/// Euclidean distance <= radius.
struct Point2D {
  double x = 0.0;
  double y = 0.0;
};

Graph geometric(const std::vector<Point2D>& points, double radius);

/// Uniformly random points in the unit square.
std::vector<Point2D> random_points(std::size_t n, Rng& rng);

}  // namespace gen
}  // namespace hinet
