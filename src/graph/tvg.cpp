#include "graph/tvg.hpp"

#include <algorithm>
#include <queue>

namespace hinet {

Tvg::Tvg(std::size_t n, Round lifetime)
    : n_(n),
      lifetime_(lifetime),
      zeta_([](const Edge&, Round) { return std::size_t{1}; }) {
  HINET_REQUIRE(lifetime >= 1, "lifetime must be at least one round");
}

void Tvg::check_node(NodeId v) const {
  HINET_REQUIRE(v < n_, "node id out of range");
}

void Tvg::add_presence(NodeId a, NodeId b, Round start, Round end) {
  check_node(a);
  check_node(b);
  HINET_REQUIRE(start < end, "empty presence interval");
  HINET_REQUIRE(end <= lifetime_, "presence beyond the lifetime");
  auto& ivals = presence_[make_edge(a, b)];
  ivals.push_back({start, end});
  // Normalise: sort and merge overlapping / adjacent intervals.
  std::sort(ivals.begin(), ivals.end(),
            [](const PresenceInterval& x, const PresenceInterval& y) {
              return x.start < y.start;
            });
  std::vector<PresenceInterval> merged;
  for (const auto& iv : ivals) {
    if (!merged.empty() && iv.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  ivals = std::move(merged);
}

void Tvg::set_latency(Latency zeta) {
  HINET_REQUIRE(static_cast<bool>(zeta), "null latency function");
  zeta_ = std::move(zeta);
}

bool Tvg::present(NodeId a, NodeId b, Round t) const {
  check_node(a);
  check_node(b);
  if (a == b) return false;
  const auto it = presence_.find(make_edge(a, b));
  if (it == presence_.end()) return false;
  for (const auto& iv : it->second) {
    if (iv.contains(t)) return true;
    if (iv.start > t) break;
  }
  return false;
}

std::size_t Tvg::latency(NodeId a, NodeId b, Round t) const {
  check_node(a);
  check_node(b);
  return zeta_(make_edge(a, b), t);
}

std::vector<PresenceInterval> Tvg::presence_of(NodeId a, NodeId b) const {
  const auto it = presence_.find(make_edge(a, b));
  if (it == presence_.end()) return {};
  return it->second;
}

Graph Tvg::snapshot(Round t) const {
  std::vector<Edge> edges;
  for (const auto& [edge, ivals] : presence_) {
    for (const auto& iv : ivals) {
      if (iv.contains(t)) {
        edges.push_back(edge);
        break;
      }
    }
  }
  return Graph(n_, edges);
}

GraphSequence Tvg::to_sequence() const {
  std::vector<Graph> rounds;
  rounds.reserve(lifetime_);
  for (Round t = 0; t < lifetime_; ++t) rounds.push_back(snapshot(t));
  return GraphSequence(std::move(rounds));
}

Tvg Tvg::from_sequence(GraphSequence& seq, std::size_t rounds) {
  HINET_REQUIRE(rounds >= 1, "need at least one round");
  Tvg tvg(seq.node_count(), rounds);
  // For each edge, find maximal runs of consecutive rounds of presence.
  std::map<Edge, Round> open;  // edge -> run start
  for (Round t = 0; t < rounds; ++t) {
    const Graph& g = seq.graph_at(t);
    // Close runs for edges that vanished.
    for (auto it = open.begin(); it != open.end();) {
      if (!g.has_edge(it->first.u, it->first.v)) {
        tvg.add_presence(it->first.u, it->first.v, it->second, t);
        it = open.erase(it);
      } else {
        ++it;
      }
    }
    for (const Edge& e : g.edges()) {
      open.try_emplace(e, t);
    }
  }
  for (const auto& [e, start] : open) {
    tvg.add_presence(e.u, e.v, start, rounds);
  }
  return tvg;
}

std::vector<Round> Tvg::foremost_arrival(NodeId source, Round start) const {
  check_node(source);
  std::vector<Round> arrival(n_, kUnreachable);
  arrival[source] = start;
  // Dijkstra-like earliest-arrival search: repeatedly settle the node with
  // the smallest known arrival and relax its temporal edges.  An edge
  // (u, v) can be taken at the first time t >= arrival[u] such that the
  // edge is present for the whole crossing [t, t + zeta).
  std::vector<char> settled(n_, 0);
  using Item = std::pair<Round, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.push({start, source});
  while (!pq.empty()) {
    const auto [t_u, u] = pq.top();
    pq.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    for (const auto& [edge, ivals] : presence_) {
      NodeId v;
      if (edge.u == u) {
        v = edge.v;
      } else if (edge.v == u) {
        v = edge.u;
      } else {
        continue;
      }
      if (settled[v]) continue;
      for (const auto& iv : ivals) {
        const Round depart = std::max<Round>(t_u, iv.start);
        if (depart >= iv.end || depart >= lifetime_) continue;
        const std::size_t z = zeta_(edge, depart);
        // The crossing must fit inside the presence interval and lifetime.
        if (depart + z > iv.end || depart + z > lifetime_) continue;
        const Round arrive = depart + z;
        if (arrive < arrival[v]) {
          arrival[v] = arrive;
          pq.push({arrive, v});
        }
        break;  // later intervals cannot improve the earliest departure
      }
    }
  }
  return arrival;
}

bool Tvg::reachable(NodeId source, NodeId target, Round start) const {
  check_node(target);
  return foremost_arrival(source, start)[target] != kUnreachable;
}

std::optional<Round> Tvg::temporal_eccentricity(NodeId source,
                                                Round start) const {
  const auto arrival = foremost_arrival(source, start);
  Round worst = start;
  for (Round a : arrival) {
    if (a == kUnreachable) return std::nullopt;
    worst = std::max(worst, a);
  }
  return worst - start;
}

std::optional<Round> Tvg::temporal_diameter(Round start) const {
  Round worst = 0;
  for (NodeId v = 0; v < n_; ++v) {
    const auto ecc = temporal_eccentricity(v, start);
    if (!ecc) return std::nullopt;
    worst = std::max(worst, *ecc);
  }
  return worst;
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
