#include "graph/dynamic.hpp"

#include <algorithm>
#include <sstream>

namespace hinet {

GraphSequence::GraphSequence(std::vector<Graph> rounds)
    : rounds_(std::move(rounds)) {
  HINET_REQUIRE(!rounds_.empty(), "GraphSequence needs at least one round");
  n_ = rounds_.front().node_count();
  for (const Graph& g : rounds_) {
    HINET_REQUIRE(g.node_count() == n_,
                  "all rounds must share the same node set");
  }
}

const Graph& GraphSequence::graph_at(Round r) {
  if (r >= rounds_.size()) return rounds_.back();
  return rounds_[r];
}

void GraphSequence::push_back(Graph g) {
  HINET_REQUIRE(g.node_count() == n_,
                "appended round must share the node set");
  rounds_.push_back(std::move(g));
}

StreamingNetwork::StreamingNetwork(std::size_t nodes, std::size_t horizon)
    : n_(nodes), horizon_(horizon) {
  HINET_REQUIRE(nodes >= 1, "streaming network needs nodes");
  HINET_REQUIRE(horizon >= 1, "streaming network needs at least one round");
  ring_.resize(std::min(kDefaultWindow, horizon));
}

const Graph& StreamingNetwork::graph_at(Round r) {
  // Repeat-final-round convention: the trace extends past its nominal
  // horizon by repeating the last graph (identical to GraphSequence).
  if (r >= horizon_) r = horizon_ - 1;
  return ensure(r);
}

const Graph& StreamingNetwork::ensure(Round r) {
  const std::size_t w = ring_.size();
  if (r < frontier_) {
    if (r + w >= frontier_) return ring_[r % w];  // still resident
    // Behind the window: deterministic replay from round 0.  Counted so
    // tests and tools can assert the expected (forward) access pattern.
    ++rewinds_;
    reset_generator();
    frontier_ = 0;
  }
  while (frontier_ <= r) {
    ring_[frontier_ % w] = synthesize_next();
    HINET_ENSURE(ring_[frontier_ % w].node_count() == n_,
                 "synthesized round changed the node set");
    ++frontier_;
  }
  return ring_[r % w];
}

std::size_t estimated_graph_bytes(std::size_t nodes, std::size_t edges) {
  // CSR: (n+1) u32 offsets plus 2 u32 neighbour entries per undirected
  // edge, plus the Graph object itself.
  return sizeof(Graph) + (nodes + 1) * 4 + edges * 8;
}

GraphSequence materialize(DynamicNetwork& net, std::size_t rounds,
                          std::size_t byte_budget) {
  HINET_REQUIRE(rounds >= 1, "need at least one round");
  std::vector<Graph> out;
  out.reserve(rounds);
  out.push_back(net.graph_at(0));
  const std::size_t per_round =
      estimated_graph_bytes(out.front().node_count(), out.front().edge_count());
  if (per_round != 0 && rounds > byte_budget / per_round) {
    std::ostringstream os;
    os << "materialize(" << rounds << " rounds) would freeze an estimated "
       << per_round * rounds / (1024 * 1024) << " MiB (~" << per_round
       << " bytes/round at n=" << out.front().node_count()
       << "), exceeding the " << byte_budget / (1024 * 1024)
       << " MiB budget — keep the trace streaming (StreamingNetwork keeps "
       << "only a small ring resident), shorten the horizon, or pass a "
       << "larger byte_budget to freeze deliberately";
    throw PreconditionError(os.str());
  }
  for (Round r = 1; r < rounds; ++r) out.push_back(net.graph_at(r));
  return GraphSequence(std::move(out));
}

std::vector<std::size_t> causal_arrival(DynamicNetwork& net, NodeId source,
                                        Round start, std::size_t horizon) {
  const std::size_t n = net.node_count();
  HINET_REQUIRE(source < n, "source out of range");
  std::vector<std::size_t> arrival(n, kNeverReached);
  std::vector<char> influenced(n, 0);
  influenced[source] = 1;
  arrival[source] = 0;
  std::size_t reached = 1;
  for (std::size_t step = 1; step <= horizon && reached < n; ++step) {
    const Graph& g = net.graph_at(start + step - 1);
    std::vector<NodeId> fresh;
    for (NodeId u = 0; u < n; ++u) {
      if (!influenced[u]) continue;
      for (NodeId v : g.neighbors(u)) {
        if (!influenced[v]) fresh.push_back(v);
      }
    }
    for (NodeId v : fresh) {
      if (!influenced[v]) {
        influenced[v] = 1;
        arrival[v] = step;
        ++reached;
      }
    }
  }
  return arrival;
}

std::optional<std::size_t> dynamic_diameter(DynamicNetwork& net,
                                            std::size_t rounds) {
  const std::size_t n = net.node_count();
  if (n <= 1) return 0;
  HINET_REQUIRE(rounds >= 1, "need at least one round");

  // f(start) = rounds needed for a causal flood from the worst source
  // starting at `start` to influence everyone, within the remaining
  // horizon (kNeverReached if some flood does not complete).
  std::vector<std::size_t> f(rounds, 0);
  for (Round start = 0; start < rounds; ++start) {
    const std::size_t horizon = rounds - start;
    std::size_t local = 0;
    for (NodeId source = 0; source < n && local != kNeverReached; ++source) {
      const auto arrival = causal_arrival(net, source, start, horizon);
      for (std::size_t a : arrival) {
        if (a == kNeverReached) {
          local = kNeverReached;
          break;
        }
        local = std::max(local, a);
      }
    }
    f[start] = local;
  }

  // The trace's dynamic diameter is the smallest D such that every start
  // with a full window left (start <= rounds - D) completes within D.
  for (std::size_t d = 1; d <= rounds; ++d) {
    bool ok = true;
    for (Round start = 0; start + d <= rounds; ++start) {
      if (f[start] > d) {  // includes kNeverReached
        ok = false;
        break;
      }
    }
    if (ok) return d;
  }
  return std::nullopt;
}

}  // namespace hinet
