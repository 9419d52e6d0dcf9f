// T-interval connectivity checking (Kuhn–Lynch–Oshman, STOC 2010).
//
// A dynamic graph is T-interval connected when for every window of T
// consecutive rounds there exists a *stable* connected spanning subgraph —
// equivalently, the edge-wise intersection of the window's graphs is
// connected over all nodes.  These checkers validate that generated traces
// actually provide the guarantee the algorithms' correctness proofs assume.
//
// The primary checkers are *incremental*, after Casteigts et al.
// ("Efficiently Testing T-Interval Connectivity in Dynamic Graphs"):
// instead of recomputing each window's intersection from scratch, they
// maintain per-edge run lengths — run(e, r) = number of consecutive
// rounds ending at r that contain e — across window shifts.  The
// intersection of the window of length T ending at round r is then exactly
// {e : run(e, r) >= T}, so
//   - is_t_interval_connected makes ONE forward pass over the trace
//     (O(Γ·(n+m)) total instead of O(Γ·T·m)), and
//   - max_interval_connectivity computes, per round, the largest T for
//     which the window ending there is connected (the bottleneck weight of
//     a maximum spanning forest under run-length weights) and combines the
//     per-round values in one pass — no binary search, no re-scan.
// Both consume the trace strictly forward, so they run over a streaming
// provider (StreamingNetwork) without forcing replays and certify traces
// that are never fully resident.
//
// The naive per-window forms are kept as *_reference: they are the
// executable spec the differential suite pins the incremental versions
// against.
#pragma once

#include "graph/dynamic.hpp"

namespace hinet {

/// True when every round's graph in [0, rounds) is connected
/// (1-interval connectivity).
bool is_one_interval_connected(DynamicNetwork& net, std::size_t rounds);

/// True when every window [i, i+T) within [0, rounds) has a connected
/// edge-wise intersection.  T must be >= 1 and <= rounds.  Single forward
/// pass; early-exits on the first disconnected window.
bool is_t_interval_connected(DynamicNetwork& net, std::size_t rounds,
                             std::size_t t);

/// Largest T in [1, rounds] for which the trace is T-interval connected,
/// or 0 when it is not even 1-interval connected.  Single forward pass.
std::size_t max_interval_connectivity(DynamicNetwork& net, std::size_t rounds);

/// The stable subgraph (edge-wise intersection) of the window
/// [start, start+t).
Graph stable_subgraph(DynamicNetwork& net, Round start, std::size_t t);

/// Incremental run-length tracker over a forward scan of a trace: after
/// push(g_r) for rounds 0..r, run(e) is the number of consecutive rounds
/// ending at r whose graphs all contain e, and threshold_subgraph(T) is
/// the intersection of the window of length T ending at r.  This is the
/// reusable core of the one-pass checkers, exposed so online monitors can
/// maintain window intersections over a streamed trace themselves.
class IntervalRunTracker {
 public:
  explicit IntervalRunTracker(std::size_t nodes) : n_(nodes) {}

  /// Folds round r's graph in (rounds must be pushed in order).
  void push(const Graph& g);

  std::size_t rounds_seen() const { return rounds_seen_; }

  /// Edges with run length >= t, i.e. the stable subgraph of the last
  /// t pushed rounds.  Requires 1 <= t <= rounds_seen().
  Graph threshold_subgraph(std::size_t t) const;

  /// Largest T such that the window of length T ending at the last pushed
  /// round has a connected intersection; 0 when even the last round alone
  /// is disconnected.  (For n <= 1 every window is vacuously connected,
  /// so this returns rounds_seen().)
  std::size_t max_connected_window() const;

  /// Sorted (edge, run-length) pairs of the last pushed round.
  const std::vector<std::pair<Edge, std::size_t>>& runs() const {
    return runs_;
  }

 private:
  std::size_t n_;
  std::size_t rounds_seen_ = 0;
  /// Sorted by edge; only edges present in the last pushed round appear.
  std::vector<std::pair<Edge, std::size_t>> runs_;
  std::vector<std::pair<Edge, std::size_t>> scratch_;
};

/// Reference (naive per-window) implementations: recompute every window's
/// intersection from scratch, with a binary search on top for the maximum.
/// Kept as the executable spec for the differential suite and as the
/// baseline of the certification bench — not for production use on long
/// traces.
bool is_t_interval_connected_reference(DynamicNetwork& net,
                                       std::size_t rounds, std::size_t t);
std::size_t max_interval_connectivity_reference(DynamicNetwork& net,
                                                std::size_t rounds);

}  // namespace hinet
