#include "core/hinet_properties.hpp"

#include <algorithm>
#include <sstream>

#include "cluster/algorithms.hpp"

namespace hinet {

namespace {

PropertyResult fail(std::string msg) { return {false, std::move(msg)}; }

/// What Definitions 2, 4, 5 and 6/7 say about one aligned window.
struct WindowJudgement {
  std::optional<Round> head_set_change;   ///< first round with another V_h
  std::optional<Round> hierarchy_change;  ///< first round with another view
  std::optional<Graph> upsilon;           ///< Υ; nullopt when heads split
  int l_hop = -1;  ///< L-hop head connectivity inside Υ (when Υ exists)
};

/// The one judge of Definitions 2, 4, 5 and 6/7 over [start, start + t).
/// Round r's view and graph are both taken before round r + 1 is touched,
/// so a stream never has to replay; the start view and heads are copies
/// because a ring slot does not outlive the walk.
WindowJudgement judge_window(DynamicNetwork& net, HierarchyProvider& hier,
                             Round start, std::size_t t) {
  WindowJudgement j;
  const HierarchyView reference = hier.hierarchy_at(start);
  const std::vector<NodeId> heads = reference.heads();
  Graph inter = net.graph_at(start);
  for (std::size_t i = 1; i < t; ++i) {
    const Round r = start + i;
    const HierarchyView& view = hier.hierarchy_at(r);
    // Equal views have equal head sets, so V_h is compared only on change.
    if (!j.head_set_change && !(view == reference)) {
      if (!j.hierarchy_change) j.hierarchy_change = r;
      if (view.heads() != heads) j.head_set_change = r;
    }
    inter = Graph::intersection(inter, net.graph_at(r));
  }

  if (heads.empty()) {
    j.upsilon = std::move(inter);  // vacuously connected head set
  } else {
    const auto comp = inter.components();
    const std::uint32_t c0 = comp[heads.front()];
    if (std::all_of(heads.begin(), heads.end(),
                    [&](NodeId h) { return comp[h] == c0; })) {
      // Υ = the component containing the heads: drop edges outside it.
      std::vector<Edge> upsilon;
      for (const Edge& e : inter.edges()) {
        if (comp[e.u] == c0) upsilon.push_back(e);
      }
      j.upsilon.emplace(inter.node_count(), upsilon);
    }
  }
  if (j.upsilon) j.l_hop = measure_l_hop_connectivity(reference, *j.upsilon);
  return j;
}

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

/// Judges the phases of `g` in order until `verdict(start, judgement)`
/// reports a failure.
template <typename Verdict>
PropertyResult first_failing_phase(Ctvg& g, std::size_t rounds, std::size_t t,
                                   Verdict&& verdict) {
  return for_each_phase(rounds, t, [&](Round start) {
    return verdict(start, judge_window(g.topology(), g.hierarchy(), start, t));
  });
}

PropertyResult head_set_verdict(Round start, const WindowJudgement& j) {
  if (!j.head_set_change) return {};
  std::ostringstream os;
  os << "head set changed inside phase starting at round " << start
     << " (at round " << *j.head_set_change << ")";
  return fail(os.str());
}

PropertyResult hierarchy_verdict(Round start, const WindowJudgement& j) {
  if (!j.hierarchy_change) return {};
  std::ostringstream os;
  os << "hierarchy changed inside phase starting at round " << start
     << " (at round " << *j.hierarchy_change << ")";
  return fail(os.str());
}

PropertyResult connectivity_verdict(Round start, const WindowJudgement& j) {
  if (j.upsilon) return {};
  std::ostringstream os;
  os << "no stable connected subgraph spans the heads in phase starting "
     << "at round " << start;
  return fail(os.str());
}

bool l_hop_within(const WindowJudgement& j, int l) {
  return j.upsilon && j.l_hop >= 0 && j.l_hop <= l;
}

PropertyResult l_hop_verdict(Round start, const WindowJudgement& j, int l) {
  if (!j.upsilon) return connectivity_verdict(start, j);
  if (l_hop_within(j, l)) return {};
  std::ostringstream os;
  os << "L-hop head connectivity is " << j.l_hop << " > " << l
     << " in phase starting at round " << start;
  return fail(os.str());
}

WindowReport window_report(Round start, std::size_t t, int l,
                           const WindowJudgement& j) {
  WindowReport w;
  w.start = start;
  w.length = t;
  w.head_set_stable = !j.head_set_change;
  w.hierarchy_stable = !j.hierarchy_change;
  w.head_connectivity = j.upsilon.has_value();
  w.l_hop_ok = l_hop_within(j, l);
  std::ostringstream os;
  if (j.head_set_change) {
    os << "head set changed at round " << *j.head_set_change;
  } else if (j.hierarchy_change) {
    os << "hierarchy changed at round " << *j.hierarchy_change;
  } else if (!j.upsilon) {
    os << "no stable subgraph spans the heads";
  } else if (!w.l_hop_ok) {
    os << "L-hop head connectivity is " << j.l_hop << " > " << l;
  }
  w.violation = os.str();
  return w;
}

}  // namespace

PropertyResult check_stable_head_set(Ctvg& g, std::size_t rounds,
                                     std::size_t t) {
  return first_failing_phase(g, rounds, t, head_set_verdict);
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
  return first_failing_phase(g, rounds, t, hierarchy_verdict);
}

std::optional<Graph> stable_head_subgraph(Ctvg& g, Round start,
                                          std::size_t t) {
  return stable_head_subgraph(g.topology(), g.hierarchy(), start, t);
}

std::optional<Graph> stable_head_subgraph(DynamicNetwork& net,
                                          HierarchyProvider& hier, Round start,
                                          std::size_t t) {
  return judge_window(net, hier, start, t).upsilon;
}

PropertyResult check_head_connectivity(Ctvg& g, std::size_t rounds,
                                       std::size_t t) {
  return first_failing_phase(g, rounds, t, connectivity_verdict);
}

int measure_l_hop(Ctvg& g, Round r) {
  return measure_l_hop_connectivity(g.hierarchy_at(r), g.graph_at(r));
}

PropertyResult check_t_interval_l_hop(Ctvg& g, std::size_t rounds,
                                      std::size_t t, int l) {
  HINET_REQUIRE(l >= 1, "L must be >= 1");
  return first_failing_phase(
      g, rounds, t, [&](Round start, const WindowJudgement& j) {
        return l_hop_verdict(start, j, l);
      });
}

PropertyResult check_hinet(Ctvg& g, std::size_t rounds, std::size_t t, int l) {
  HINET_REQUIRE(l >= 1, "L must be >= 1");
  PropertyResult first_l_hop;
  const PropertyResult hierarchy = first_failing_phase(
      g, rounds, t, [&](Round start, const WindowJudgement& j) {
        if (first_l_hop.holds) first_l_hop = l_hop_verdict(start, j, l);
        return hierarchy_verdict(start, j);
      });
  return hierarchy.holds ? first_l_hop : hierarchy;
}

std::size_t AssumptionReport::violated_windows() const {
  std::size_t v = 0;
  for (const WindowReport& w : windows) {
    if (!w.ok()) ++v;
  }
  return v;
}

std::optional<Round> AssumptionReport::first_violation_round() const {
  for (const WindowReport& w : windows) {
    if (!w.ok()) return w.start;
  }
  return std::nullopt;
}

std::string AssumptionReport::to_string() const {
  std::ostringstream os;
  os << "(T=" << t << ", L=" << l << ") " << windows.size() << " windows, "
     << violated_windows() << " violated\n";
  for (const WindowReport& w : windows) {
    os << "  [" << w.start << ", " << w.start + w.length << ") ";
    if (w.ok()) {
      os << "ok";
    } else {
      os << "VIOLATED: " << w.violation;
    }
    if (w.completion_fraction_end >= 0.0) {
      os << " (completion " << w.completion_fraction_end << ")";
    }
    os << "\n";
  }
  return os.str();
}

AssumptionReport monitor_assumptions(Ctvg& trace, std::size_t rounds,
                                     std::size_t t, int l) {
  return monitor_assumptions(trace.topology(), trace.hierarchy(), rounds, t,
                             l);
}

AssumptionReport monitor_assumptions(DynamicNetwork& net,
                                     HierarchyProvider& hier,
                                     std::size_t rounds, std::size_t t,
                                     int l) {
  HINET_REQUIRE(t >= 1, "T must be >= 1");
  HINET_REQUIRE(l >= 1, "L must be >= 1");
  HINET_REQUIRE(net.node_count() == hier.node_count(),
                "topology and hierarchy node counts differ");
  AssumptionReport report;
  report.t = t;
  report.l = l;
  for (Round start = 0; start + t <= rounds; start += t) {
    report.windows.push_back(
        window_report(start, t, l, judge_window(net, hier, start, t)));
  }
  return report;
}

void join_completion(AssumptionReport& report, const SimMetrics& metrics) {
  const auto& series = metrics.complete_nodes_per_round;
  const std::size_t n = metrics.per_node_tx_tokens.size();
  if (series.empty() || n == 0) return;
  for (WindowReport& w : report.windows) {
    // The run may have stopped early (stop_when_complete) or short of the
    // trace horizon; clamp to the last executed round.
    const std::size_t idx =
        std::min(w.start + w.length - 1, series.size() - 1);
    w.completion_fraction_end =
        static_cast<double>(series[idx]) / static_cast<double>(n);
  }
}

}  // namespace hinet
