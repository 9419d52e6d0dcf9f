#include "core/hinet_properties.hpp"

#include <algorithm>
#include <sstream>

#include "cluster/algorithms.hpp"

namespace hinet {

namespace {

PropertyResult fail(std::string msg) { return {false, std::move(msg)}; }

/// Iterates every complete aligned phase [p*t, (p+1)*t) inside [0, rounds).
template <typename Fn>
PropertyResult for_each_phase(std::size_t rounds, std::size_t t, Fn&& fn) {
  HINET_REQUIRE(t >= 1, "T must be >= 1");
  for (Round start = 0; start + t <= rounds; start += t) {
    PropertyResult r = fn(start);
    if (!r.holds) return r;
  }
  return {};
}

}  // namespace

PropertyResult check_stable_head_set(Ctvg& g, std::size_t rounds,
                                     std::size_t t) {
  return for_each_phase(rounds, t, [&](Round start) -> PropertyResult {
    const auto reference = g.hierarchy_at(start).heads();
    for (std::size_t i = 1; i < t; ++i) {
      if (g.hierarchy_at(start + i).heads() != reference) {
        std::ostringstream os;
        os << "head set changed inside phase starting at round " << start
           << " (at round " << start + i << ")";
        return fail(os.str());
      }
    }
    return {};
  });
}

PropertyResult check_stable_cluster(Ctvg& g, std::size_t rounds, std::size_t t,
                                    ClusterId k) {
  return for_each_phase(rounds, t, [&](Round start) -> PropertyResult {
    const auto reference = g.hierarchy_at(start).members_of(k);
    for (std::size_t i = 1; i < t; ++i) {
      if (g.hierarchy_at(start + i).members_of(k) != reference) {
        std::ostringstream os;
        os << "cluster " << k << " membership changed inside phase starting "
           << "at round " << start << " (at round " << start + i << ")";
        return fail(os.str());
      }
    }
    return {};
  });
}

PropertyResult check_stable_hierarchy(Ctvg& g, std::size_t rounds,
                                      std::size_t t) {
  return for_each_phase(rounds, t, [&](Round start) -> PropertyResult {
    const HierarchyView& reference = g.hierarchy_at(start);
    for (std::size_t i = 1; i < t; ++i) {
      if (!(g.hierarchy_at(start + i) == reference)) {
        std::ostringstream os;
        os << "hierarchy changed inside phase starting at round " << start
           << " (at round " << start + i << ")";
        return fail(os.str());
      }
    }
    return {};
  });
}

std::optional<Graph> stable_head_subgraph(Ctvg& g, Round start,
                                          std::size_t t) {
  return stable_head_subgraph(g.topology(), g.hierarchy(), start, t);
}

std::optional<Graph> stable_head_subgraph(DynamicNetwork& net,
                                          HierarchyProvider& hier, Round start,
                                          std::size_t t) {
  Graph inter = net.graph_at(start);
  for (std::size_t i = 1; i < t; ++i) {
    inter = Graph::intersection(inter, net.graph_at(start + i));
  }
  const auto heads = hier.hierarchy_at(start).heads();
  if (heads.empty()) return inter;  // vacuously connected head set
  const auto comp = inter.components();
  const std::uint32_t c0 = comp[heads.front()];
  for (NodeId h : heads) {
    if (comp[h] != c0) return std::nullopt;
  }
  // Υ = the component containing the heads: drop edges outside it.
  std::vector<Edge> upsilon;
  for (const Edge& e : inter.edges()) {
    if (comp[e.u] == c0) upsilon.push_back(e);
  }
  return Graph(inter.node_count(), upsilon);
}

PropertyResult check_head_connectivity(Ctvg& g, std::size_t rounds,
                                       std::size_t t) {
  return for_each_phase(rounds, t, [&](Round start) -> PropertyResult {
    if (!stable_head_subgraph(g, start, t)) {
      std::ostringstream os;
      os << "no stable connected subgraph spans the heads in phase starting "
         << "at round " << start;
      return fail(os.str());
    }
    return {};
  });
}

int measure_l_hop(Ctvg& g, Round r) {
  return measure_l_hop_connectivity(g.hierarchy_at(r), g.graph_at(r));
}

PropertyResult check_t_interval_l_hop(Ctvg& g, std::size_t rounds,
                                      std::size_t t, int l) {
  HINET_REQUIRE(l >= 1, "L must be >= 1");
  return for_each_phase(rounds, t, [&](Round start) -> PropertyResult {
    const auto upsilon = stable_head_subgraph(g, start, t);
    if (!upsilon) {
      std::ostringstream os;
      os << "no stable connected subgraph spans the heads in phase starting "
         << "at round " << start;
      return fail(os.str());
    }
    const int measured =
        measure_l_hop_connectivity(g.hierarchy_at(start), *upsilon);
    if (measured < 0 || measured > l) {
      std::ostringstream os;
      os << "L-hop head connectivity is " << measured << " > " << l
         << " in phase starting at round " << start;
      return fail(os.str());
    }
    return {};
  });
}

PropertyResult check_hinet(Ctvg& g, std::size_t rounds, std::size_t t, int l) {
  PropertyResult r = check_stable_hierarchy(g, rounds, t);
  if (!r.holds) return r;
  return check_t_interval_l_hop(g, rounds, t, l);
}

}  // namespace hinet
