#include "graph/interval.hpp"

#include <algorithm>
#include <numeric>

namespace hinet {

namespace {

/// Union-find with path halving; small enough to live on the stack of one
/// max_connected_window call.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Returns true when a and b were in different components.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

void IntervalRunTracker::push(const Graph& g) {
  HINET_REQUIRE(g.node_count() == n_, "pushed round changed the node set");
  const std::vector<Edge> edges = g.edges();  // sorted lexicographically
  scratch_.clear();
  scratch_.reserve(edges.size());
  // runs_ is sorted by edge and edges is sorted, so one merge pass
  // computes the new run lengths: an edge also present last round extends
  // its run, a fresh edge starts at 1, and an edge absent this round is
  // dropped (its run is broken).
  std::size_t i = 0;
  for (const Edge& e : edges) {
    while (i < runs_.size() && runs_[i].first < e) ++i;
    const bool carried = i < runs_.size() && runs_[i].first == e;
    scratch_.emplace_back(e, carried ? runs_[i].second + 1 : 1);
  }
  runs_.swap(scratch_);
  ++rounds_seen_;
}

Graph IntervalRunTracker::threshold_subgraph(std::size_t t) const {
  HINET_REQUIRE(t >= 1, "window must span at least one round");
  HINET_REQUIRE(t <= rounds_seen_, "window longer than the rounds seen");
  std::vector<Edge> edges;
  for (const auto& [e, run] : runs_) {
    if (run >= t) edges.push_back(e);
  }
  return Graph(n_, edges);
}

std::size_t IntervalRunTracker::max_connected_window() const {
  if (n_ <= 1) return rounds_seen_;  // vacuously connected at any length
  // Largest T with {e : run(e) >= T} connected = the bottleneck (minimum)
  // run length on a maximum spanning forest under run-length weights:
  // scan edges by descending run and union-find until one component
  // remains.  Descending order makes the threshold set grow monotonically,
  // so the run of the edge that first connects everything is exact: any
  // higher threshold excludes it, and the strictly-heavier edges alone had
  // not connected the graph yet.
  std::vector<std::pair<Edge, std::size_t>> by_run(runs_);
  std::sort(by_run.begin(), by_run.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;  // deterministic tie-break
            });
  UnionFind uf(n_);
  std::size_t components = n_;
  for (const auto& [e, run] : by_run) {
    if (uf.unite(e.u, e.v)) {
      if (--components == 1) return run;
    }
  }
  return 0;  // the last round alone is already disconnected
}

Graph stable_subgraph(DynamicNetwork& net, Round start, std::size_t t) {
  HINET_REQUIRE(t >= 1, "window must span at least one round");
  Graph acc = net.graph_at(start);
  for (std::size_t i = 1; i < t; ++i) {
    acc = Graph::intersection(acc, net.graph_at(start + i));
    if (acc.edge_count() == 0) break;  // cannot get smaller
  }
  return acc;
}

bool is_one_interval_connected(DynamicNetwork& net, std::size_t rounds) {
  for (Round r = 0; r < rounds; ++r) {
    if (!net.graph_at(r).is_connected()) return false;
  }
  return true;
}

bool is_t_interval_connected(DynamicNetwork& net, std::size_t rounds,
                             std::size_t t) {
  HINET_REQUIRE(t >= 1, "T must be >= 1");
  HINET_REQUIRE(t <= rounds, "T larger than the trace");
  IntervalRunTracker tracker(net.node_count());
  for (Round r = 0; r < rounds; ++r) {
    tracker.push(net.graph_at(r));
    if (r + 1 >= t && !tracker.threshold_subgraph(t).is_connected()) {
      return false;
    }
  }
  return true;
}

std::size_t max_interval_connectivity(DynamicNetwork& net,
                                      std::size_t rounds) {
  if (rounds == 0) return 0;
  // One forward pass: best[r] = largest T whose window ending at r has a
  // connected intersection.  T-interval connectivity then requires
  // best[r] >= T for every r >= T-1, i.e. suffix_min(best, T-1) >= T.
  std::vector<std::size_t> best(rounds);
  IntervalRunTracker tracker(net.node_count());
  for (Round r = 0; r < rounds; ++r) {
    tracker.push(net.graph_at(r));
    best[r] = tracker.max_connected_window();
    if (best[r] == 0) return 0;  // a disconnected round caps every T at 0
  }
  std::size_t answer = 0;
  std::size_t suffix_min = static_cast<std::size_t>(-1);
  for (std::size_t t = rounds; t >= 1; --t) {
    suffix_min = std::min(suffix_min, best[t - 1]);
    if (suffix_min >= t) {
      answer = t;  // every longer T already failed; the first hit is max
      break;
    }
  }
  return answer;
}

bool is_t_interval_connected_reference(DynamicNetwork& net,
                                       std::size_t rounds, std::size_t t) {
  HINET_REQUIRE(t >= 1, "T must be >= 1");
  HINET_REQUIRE(t <= rounds, "T larger than the trace");
  for (Round start = 0; start + t <= rounds; ++start) {
    if (!stable_subgraph(net, start, t).is_connected()) return false;
  }
  return true;
}

std::size_t max_interval_connectivity_reference(DynamicNetwork& net,
                                                std::size_t rounds) {
  if (rounds == 0 || !is_one_interval_connected(net, rounds)) return 0;
  // T-interval connectivity is monotone downward in T, so binary search.
  std::size_t lo = 1;       // known connected
  std::size_t hi = rounds;  // candidate upper bound
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (is_t_interval_connected_reference(net, rounds, mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace hinet
