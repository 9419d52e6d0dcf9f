#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <sstream>

namespace hinet {

Edge make_edge(NodeId a, NodeId b) {
  HINET_REQUIRE(a != b, "self-loop");
  return a < b ? Edge{a, b} : Edge{b, a};
}

Graph::Graph(std::size_t n) : offsets_(n + 1, 0) {}

Graph::Graph(std::size_t n, const std::vector<Edge>& edges)
    : offsets_(n + 1, 0) {
  HINET_REQUIRE(edges.size() <= std::numeric_limits<std::uint32_t>::max() / 2,
                "edge list too long for 32-bit offsets");
  // Counting sort into rows: count each endpoint's arcs at offsets_[v],
  // turn the counts into row ends, then place every arc by decrementing
  // its row's end — which leaves offsets_[v] at the row's start.
  for (const Edge& e : edges) {
    check_node(e.u);
    check_node(e.v);
    HINET_REQUIRE(e.u != e.v, "self-loop");
    ++offsets_[e.u];
    ++offsets_[e.v];
  }
  std::partial_sum(offsets_.begin(), offsets_.end() - 1, offsets_.begin());
  offsets_[n] = static_cast<std::uint32_t>(2 * edges.size());
  neighbors_.resize(2 * edges.size());
  for (const Edge& e : edges) {
    neighbors_[--offsets_[e.u]] = e.v;
    neighbors_[--offsets_[e.v]] = e.u;
  }
  // Sort each row and drop duplicate edges, compacting in place.  Row v's
  // old end is still offsets_[v + 1] when v is visited.  A row of at most
  // one arc (a HiNet member's, most rows of a phase) is already both.
  std::uint32_t out = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto row = neighbors_.begin() + offsets_[v];
    auto unique_end = neighbors_.begin() + offsets_[v + 1];
    if (unique_end - row > 1) {
      std::sort(row, unique_end);
      unique_end = std::unique(row, unique_end);
    }
    offsets_[v] = out;
    for (auto it = row; it != unique_end; ++it) neighbors_[out++] = *it;
  }
  offsets_[n] = out;
  neighbors_.resize(out);
}

namespace {

/// An arc (row, neighbour) as one key that sorts by row, then neighbour.
std::uint64_t arc_key(NodeId row, NodeId neighbour) {
  return std::uint64_t{row} << 32 | neighbour;
}
NodeId arc_row(std::uint64_t key) { return static_cast<NodeId>(key >> 32); }
NodeId arc_neighbour(std::uint64_t key) { return static_cast<NodeId>(key); }

/// Sorts after every arc of a graph whose node ids fit in a NodeId.
constexpr std::uint64_t kNoArc = ~std::uint64_t{0};

}  // namespace

Graph Graph::edited(const Graph& base, std::span<const Edge> removed,
                    std::span<const Edge> added) {
  HINET_REQUIRE(base.edge_count() + added.size() <=
                    std::numeric_limits<std::uint32_t>::max() / 2,
                "edge list too long for 32-bit offsets");
  // Both arcs of every edge as sorted, unique keys, ended by kNoArc: each
  // touched row's removals and additions are then one sorted run each.
  const auto arcs_of = [&base](std::span<const Edge> edges) {
    std::vector<std::uint64_t> arcs;
    arcs.reserve(2 * edges.size() + 1);
    for (const Edge& e : edges) {
      base.check_node(e.u);
      base.check_node(e.v);
      HINET_REQUIRE(e.u != e.v, "self-loop");
      arcs.push_back(arc_key(e.u, e.v));
      arcs.push_back(arc_key(e.v, e.u));
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
    arcs.push_back(kNoArc);
    return arcs;
  };
  const std::vector<std::uint64_t> cut = arcs_of(removed);
  const std::vector<std::uint64_t> put = arcs_of(added);
  if (std::min(cut.front(), put.front()) == kNoArc) return base;

  const std::size_t n = base.node_count();
  Graph g;
  g.offsets_.resize(n + 1);
  g.neighbors_.reserve(base.neighbors_.size() + put.size() - 1);
  const auto written = [&g] {
    return static_cast<std::uint32_t>(g.neighbors_.size());
  };
  // Rows [next, end) are untouched: one block copy, offsets shifted by the
  // arcs merged into and cut from earlier rows.
  NodeId next = 0;
  const auto copy_rows = [&](NodeId end) {
    const std::uint32_t shift = written() - base.offsets_[next];
    for (NodeId v = next; v < end; ++v) {
      g.offsets_[v] = base.offsets_[v] + shift;
    }
    g.neighbors_.insert(g.neighbors_.end(),
                        base.neighbors_.begin() + base.offsets_[next],
                        base.neighbors_.begin() + base.offsets_[end]);
    next = end;
  };
  const std::uint64_t* c = cut.data();
  const std::uint64_t* p = put.data();
  for (std::uint64_t arc; (arc = std::min(*c, *p)) != kNoArc;) {
    const NodeId v = arc_row(arc);
    copy_rows(v);
    g.offsets_[v] = written();
    // Merge row v with its sorted additions, dropping its removals and
    // keeping one of each neighbour.  Every removal must meet its arc.
    // The runs of later rows, and kNoArc, sort after every arc of row v.
    for (const NodeId a : base.neighbors(v)) {
      const std::uint64_t key = arc_key(v, a);
      for (; *p < key; ++p) g.neighbors_.push_back(arc_neighbour(*p));
      HINET_REQUIRE(*c >= key, "removed edge is not in the graph");
      const bool kept = *c != key;
      if (!kept) ++c;
      const bool readded = *p == key;
      if (readded) ++p;
      if (kept || readded) g.neighbors_.push_back(a);
    }
    for (; *p != kNoArc && arc_row(*p) == v; ++p) {
      g.neighbors_.push_back(arc_neighbour(*p));
    }
    HINET_REQUIRE(*c == kNoArc || arc_row(*c) != v,
                  "removed edge is not in the graph");
    next = v + 1;
  }
  copy_rows(static_cast<NodeId>(n));
  g.offsets_[n] = written();
  return g;
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  check_node(b);
  const auto row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

std::vector<int> Graph::distances_from(NodeId source) const {
  check_node(source);
  std::vector<int> dist(node_count(), -1);
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : neighbors(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

int Graph::distance(NodeId a, NodeId b) const {
  check_node(b);
  return distances_from(a)[b];
}

bool Graph::is_connected() const {
  if (node_count() <= 1) return true;
  const auto dist = distances_from(0);
  return std::all_of(dist.begin(), dist.end(), [](int d) { return d >= 0; });
}

bool Graph::is_connected_subset(std::span<const NodeId> subset) const {
  if (subset.size() <= 1) return true;
  std::vector<char> allowed(node_count(), 0);
  for (NodeId v : subset) {
    check_node(v);
    allowed[v] = 1;
  }
  const auto dist = restricted_distances(*this, subset.front(), allowed);
  return std::all_of(subset.begin(), subset.end(),
                     [&](NodeId v) { return dist[v] >= 0; });
}

std::vector<std::uint32_t> Graph::components() const {
  std::vector<std::uint32_t> label(node_count(),
                                   std::numeric_limits<std::uint32_t>::max());
  std::uint32_t next = 0;
  std::queue<NodeId> q;
  for (NodeId s = 0; s < node_count(); ++s) {
    if (label[s] != std::numeric_limits<std::uint32_t>::max()) continue;
    label[s] = next;
    q.push(s);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (NodeId v : neighbors(u)) {
        if (label[v] == std::numeric_limits<std::uint32_t>::max()) {
          label[v] = next;
          q.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

int Graph::diameter() const {
  if (node_count() == 0) return 0;
  int best = 0;
  for (NodeId s = 0; s < node_count(); ++s) {
    const auto dist = distances_from(s);
    for (int d : dist) {
      if (d < 0) return -1;
      best = std::max(best, d);
    }
  }
  return best;
}

Graph Graph::intersection(const Graph& a, const Graph& b) {
  HINET_REQUIRE(a.node_count() == b.node_count(),
                "intersection of graphs with different node counts");
  std::vector<Edge> common;
  for (NodeId u = 0; u < a.node_count(); ++u) {
    for (NodeId v : a.neighbors(u)) {
      if (u < v && b.has_edge(u, v)) common.push_back({u, v});
    }
  }
  return Graph(a.node_count(), common);
}

Graph Graph::union_of(const Graph& a, const Graph& b) {
  HINET_REQUIRE(a.node_count() == b.node_count(),
                "union of graphs with different node counts");
  return with_edges(a, b.edges());
}

bool Graph::contains_subgraph(const Graph& sub) const {
  HINET_REQUIRE(node_count() == sub.node_count(),
                "subgraph test over different node counts");
  for (NodeId u = 0; u < sub.node_count(); ++u) {
    for (NodeId v : sub.neighbors(u)) {
      if (u < v && !has_edge(u, v)) return false;
    }
  }
  return true;
}

std::string Graph::to_string() const {
  std::ostringstream os;
  os << "Graph(n=" << node_count() << ", m=" << edge_count() << ")\n";
  for (NodeId u = 0; u < node_count(); ++u) {
    os << "  " << u << ":";
    for (NodeId v : neighbors(u)) os << ' ' << v;
    os << '\n';
  }
  return os.str();
}

std::vector<int> restricted_distances(const Graph& g, NodeId source,
                                      std::span<const char> allowed) {
  HINET_REQUIRE(allowed.size() == g.node_count(),
                "allowed mask size mismatch");
  std::vector<int> dist(g.node_count(), -1);
  if (source >= g.node_count() || !allowed[source]) return dist;
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : g.neighbors(u)) {
      if (allowed[v] && dist[v] < 0) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

}  // namespace hinet
