#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace hinet {
namespace gen {

Graph path(std::size_t n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return Graph(n, edges);
}

Graph ring(std::size_t n) {
  HINET_REQUIRE(n >= 3, "ring needs at least 3 nodes");
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  edges.push_back({0, static_cast<NodeId>(n - 1)});
  return Graph(n, edges);
}

Graph star(std::size_t n) {
  HINET_REQUIRE(n >= 1, "star needs at least 1 node");
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) edges.push_back({0, i});
  return Graph(n, edges);
}

Graph complete(std::size_t n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return Graph(n, edges);
}

Graph grid(std::size_t rows, std::size_t cols) {
  HINET_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  std::vector<Edge> edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Graph(rows * cols, edges);
}

Graph erdos_renyi(std::size_t n, double p, Rng& rng) {
  HINET_REQUIRE(p >= 0.0 && p <= 1.0, "edge probability outside [0,1]");
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) edges.push_back({i, j});
    }
  }
  return Graph(n, edges);
}

namespace {

/// Edges of a uniformly random labelled tree on n nodes.
std::vector<Edge> random_tree_edges(std::size_t n, Rng& rng) {
  std::vector<Edge> edges;
  if (n <= 1) return edges;
  if (n == 2) return {{0, 1}};
  // Prüfer decoding: a length-(n-2) sequence over [0,n) maps bijectively
  // onto labelled trees, so this samples uniformly.  Standard linear-time
  // min-leaf decoding with a moving pointer.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.below(n));
  std::vector<std::size_t> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  NodeId ptr = 0;
  while (deg[ptr] != 1) ++ptr;
  NodeId leaf = ptr;
  edges.reserve(n - 1);
  for (NodeId x : prufer) {
    edges.push_back(make_edge(leaf, x));
    if (--deg[x] == 1 && x < ptr) {
      leaf = x;
    } else {
      ++ptr;
      while (deg[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  edges.push_back(make_edge(leaf, static_cast<NodeId>(n - 1)));
  return edges;
}

}  // namespace

Graph random_tree(std::size_t n, Rng& rng) {
  return Graph(n, random_tree_edges(n, rng));
}

Graph random_connected(std::size_t n, std::size_t extra_edges, Rng& rng) {
  const std::vector<Edge> tree = random_tree_edges(n, rng);
  if (n < 2) return Graph(n, tree);
  // The draw loop stops on the number of distinct edges, so the edges are
  // collected in a set that counts duplicate draws out.
  std::set<Edge> edges(tree.begin(), tree.end());
  const std::size_t max_edges = n * (n - 1) / 2;
  const std::size_t target = std::min(max_edges, edges.size() + extra_edges);
  std::size_t guard = 0;
  while (edges.size() < target && guard < 100 * target + 100) {
    const auto a = static_cast<NodeId>(rng.below(n));
    const auto b = static_cast<NodeId>(rng.below(n));
    if (a != b) edges.insert(make_edge(a, b));
    ++guard;
  }
  return Graph(n, std::vector<Edge>(edges.begin(), edges.end()));
}

void append_churn_edges(std::vector<Edge>& edges, std::size_t n,
                        std::size_t count, Rng& rng) {
  if (n < 2) return;
  for (std::size_t e = 0; e < count; ++e) {
    const auto a = static_cast<NodeId>(rng.below(n));
    const auto b = static_cast<NodeId>(rng.below(n));
    if (a != b) edges.push_back({a, b});
  }
}

Graph geometric(const std::vector<Point2D>& points, double radius) {
  HINET_REQUIRE(radius >= 0.0, "negative radius");
  const double r2 = radius * radius;
  std::vector<Edge> edges;
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j = i + 1; j < points.size(); ++j) {
      const double dx = points[i].x - points[j].x;
      const double dy = points[i].y - points[j].y;
      if (dx * dx + dy * dy <= r2) edges.push_back({i, j});
    }
  }
  return Graph(points.size(), edges);
}

std::vector<Point2D> random_points(std::size_t n, Rng& rng) {
  std::vector<Point2D> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform01();
    p.y = rng.uniform01();
  }
  return pts;
}

}  // namespace gen
}  // namespace hinet
