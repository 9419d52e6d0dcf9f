// Checkers for the stability properties of Section III.C
// (Definitions 2–8), and the online assumption monitor.
//
// The paper's algorithms execute in consecutive *phases* of T rounds, and
// the stability definitions quantify over "T-interval time" — every
// interval [0, T-1].  We interpret intervals as the aligned phases
// [p·T, (p+1)·T) the algorithms actually use (a sliding-window reading of
// Definition 2 would force the head set to never change at all, which
// contradicts the paper's discussion of changing head sets).
//
// Definitions 2, 4, 5 and 6/7 are judged in one place: a per-window judge
// that copies the window's start view and heads, then visits its rounds
// once and in order — the view, then the graph, of each round — folding
// in the head-set and hierarchy comparisons and the edge-wise
// intersection, and at the end derives Υ and the L-hop measure from the
// start view.  It never returns to an earlier round, so a streaming
// provider is certified at its default ring without a single replay.
//
// Two shapes read the judge:
//   - the check_* functions scan every complete phase inside [0, rounds)
//     and stop at the first one failing their definition, returning a
//     small result with the offending round — the right shape for unit
//     tests and bounds audits;
//   - monitor_assumptions reports every window.  Under fault injection
//     the interesting question is *which* windows of the realized trace
//     broke *which* assumption, and how dissemination fared around them;
//     the per-window log joins against SimMetrics so violations line up
//     with completion over time.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/ctvg.hpp"
#include "sim/metrics.hpp"

namespace hinet {

struct PropertyResult {
  bool holds = true;
  std::string violation;  ///< empty when holds

  explicit operator bool() const { return holds; }
};

/// Definition 2 (T-interval Stable Cluster Head Set, Ts): within every
/// phase of T rounds, V_h is constant.
PropertyResult check_stable_head_set(Ctvg& g, std::size_t rounds,
                                     std::size_t t);

/// Definition 3 (T-interval Stable Cluster, Tc) for one cluster id k:
/// within every phase, M_k is constant.  (A cluster that does not exist —
/// empty membership — in a phase is vacuously stable for that phase.)
PropertyResult check_stable_cluster(Ctvg& g, std::size_t rounds, std::size_t t,
                                    ClusterId k);

/// Definition 4 (T-interval Stable Hierarchy, Th): Definition 2 plus
/// Definition 3 for every cluster — equivalently, the entire HierarchyView
/// is constant within every phase.
PropertyResult check_stable_hierarchy(Ctvg& g, std::size_t rounds,
                                      std::size_t t);

/// Definition 5 (T-interval Cluster Head Connectivity, Td): for every
/// phase there is a stable subgraph Υ ⊆ every round's graph containing all
/// heads and connected.  Equivalently: all phase-heads lie in a single
/// connected component of the edge-wise intersection of the phase's
/// graphs.  Requires the head set to be stable within the phase (Def. 5
/// speaks of *the* head set of the interval); use check_stable_head_set
/// first when in doubt.
PropertyResult check_head_connectivity(Ctvg& g, std::size_t rounds,
                                       std::size_t t);

/// The Υ of Definition 5 for the phase starting at `start`: the connected
/// component of the stable (intersection) subgraph containing the heads.
/// Returns nullopt when the heads do not share a component.
std::optional<Graph> stable_head_subgraph(Ctvg& g, Round start, std::size_t t);

/// Streaming-friendly form over any topology/hierarchy pair — e.g. the
/// lazily synthesised views of make_hinet_stream, or a FaultyNetwork over
/// one.  Visits rounds [start, start + t) once, strictly forward.
std::optional<Graph> stable_head_subgraph(DynamicNetwork& net,
                                          HierarchyProvider& hier, Round start,
                                          std::size_t t);

/// Definition 6 (L-hop Cluster Head Connectivity) measured in round r:
/// the bottleneck backbone distance between heads (see
/// measure_l_hop_connectivity).  -1 when heads are backbone-disconnected.
int measure_l_hop(Ctvg& g, Round r);

/// Definition 7 (T-interval L-hop Cluster Head Connectivity): Definition 5
/// holds and, inside every phase's stable subgraph Υ, the L-hop head
/// connectivity measured over backbone nodes is <= l.
PropertyResult check_t_interval_l_hop(Ctvg& g, std::size_t rounds,
                                      std::size_t t, int l);

/// Definition 8 ((T, L)-HiNet): Definition 4 plus Definition 7.  A phase
/// failing Definition 4 is reported before any phase failing Definition 7.
PropertyResult check_hinet(Ctvg& g, std::size_t rounds, std::size_t t, int l);

/// Verdict for one aligned window [start, start + length).
struct WindowReport {
  Round start = 0;
  std::size_t length = 0;

  bool head_set_stable = true;   ///< Definition 2 over this window
  bool hierarchy_stable = true;  ///< Definition 4 over this window
  bool head_connectivity = true; ///< Definition 5: Υ exists and spans heads
  bool l_hop_ok = true;          ///< Definitions 6/7: L-hop bound inside Υ

  /// Human-readable description of the first violated property (empty when
  /// the window is clean).
  std::string violation;

  /// Fraction of nodes complete at the window's last executed round;
  /// -1 until join_completion() fills it in.
  double completion_fraction_end = -1.0;

  bool ok() const {
    return head_set_stable && hierarchy_stable && head_connectivity &&
           l_hop_ok;
  }
};

/// Whole-trace monitoring result: one WindowReport per complete aligned
/// window, plus the (t, l) the trace was judged against.
struct AssumptionReport {
  std::size_t t = 0;
  int l = 0;
  std::vector<WindowReport> windows;

  std::size_t violated_windows() const;
  bool clean() const { return violated_windows() == 0; }

  /// Start round of the earliest violated window, or nullopt when clean.
  std::optional<Round> first_violation_round() const;

  /// Multi-line log, one window per line (for EXPERIMENTS.md-style docs
  /// and test failure output).
  std::string to_string() const;
};

/// Judges every complete aligned window of length `t` inside [0, rounds)
/// against Definitions 2, 4, 5 and 6/7 with bound `l`.  A trace built from
/// a clean make_hinet generator with matching (T, L) yields a clean
/// report; crash/partition/burst faults show up as violated windows.
/// check_hinet(trace, rounds, t, l) holds iff the report is clean.
AssumptionReport monitor_assumptions(Ctvg& trace, std::size_t rounds,
                                     std::size_t t, int l);

/// Online form over any topology/hierarchy pair — in particular the
/// lazily synthesised views of make_hinet_stream, optionally wrapped in a
/// FaultyNetwork.  Every round is visited once, strictly forward, so a
/// stream at any ring width certifies without replaying, and traces far
/// too large to materialize are certified in O(n·W) memory.
AssumptionReport monitor_assumptions(DynamicNetwork& net,
                                     HierarchyProvider& hier,
                                     std::size_t rounds, std::size_t t, int l);

/// Fills each window's completion_fraction_end from the run's per-round
/// completion series, making the violation log joinable against the
/// degradation metrics ("the window that lost head connectivity is where
/// completion stalled").
void join_completion(AssumptionReport& report, const SimMetrics& metrics);

}  // namespace hinet
