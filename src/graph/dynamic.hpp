// Dynamic network abstraction: a sequence of per-round communication
// graphs over a fixed node set.
//
// This is the edge-centric "evolving graph" view (Ferreira et al.): the
// lifetime Γ is divided into synchronous rounds and round r communicates
// over graph_at(r).  Two families of providers exist:
//   - GraphSequence: the materialized special case — every round resident
//     up front (O(Γ·n) memory, free random access);
//   - StreamingNetwork: rounds synthesised on demand from per-round RNG
//     state, with only a small ring of recent rounds resident (O(W·n)
//     memory).  This is what lets the simulator reach n = 10^5+, where a
//     fully resident trace would not fit.
// materialize() converts the latter into the former as an explicit,
// budget-guarded opt-in.
//
// causal_arrival and dynamic_diameter run Kuhn & Oshman's causal-influence
// flood (one hop per round) over any provider: no dissemination algorithm
// informs a node before that flood reaches it.
//
// No provider knows a byte format.  A round is a function of (spec, seed,
// round index), so whoever needs round r of a trace again — a backward
// read, or a second pass — rebuilds it from the seed.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace hinet {

/// Round index within the lifetime Γ = {t0, t1, ...}.
using Round = std::size_t;

/// Read-only view of a dynamic network's topology over time.
class DynamicNetwork {
 public:
  virtual ~DynamicNetwork() = default;

  /// Number of nodes (fixed over the lifetime; the models in the paper do
  /// not add or remove nodes, only edges).
  virtual std::size_t node_count() const = 0;

  /// Communication graph in round r.  Implementations must be
  /// deterministic: repeated calls with the same r return the same graph.
  virtual const Graph& graph_at(Round r) = 0;
};

/// A dynamic network backed by an explicit, precomputed list of rounds.
/// Rounds past the end repeat the final graph, which matches the models'
/// convention that a trace can be extended arbitrarily (and lets
/// algorithms run past a generator's nominal horizon).
class GraphSequence final : public DynamicNetwork {
 public:
  explicit GraphSequence(std::vector<Graph> rounds);

  std::size_t node_count() const override { return n_; }
  const Graph& graph_at(Round r) override;

  std::size_t round_count() const { return rounds_.size(); }
  const std::vector<Graph>& rounds() const { return rounds_; }

  /// Appends one more round (used by incremental generators and tests).
  void push_back(Graph g);

 private:
  std::vector<Graph> rounds_;
  std::size_t n_;
};

/// Base for lazily synthesised dynamic networks: a generator produces
/// round graphs in order and only the last kDefaultWindow realized rounds
/// stay resident in a ring buffer.  graph_at honours the GraphSequence
/// contract exactly — including the repeat-final-round convention past the
/// nominal horizon — so streaming and materialized providers are
/// observationally interchangeable.
///
/// Access pattern and cost:
///   - forward, monotone access (the engine's round loop) is O(1) ring
///     lookups plus one synthesize_next() per new round;
///   - the first read of a round past the frontier synthesizes forward
///     to it from wherever the generator stands (from round 0 on a fresh
///     stream);
///   - access behind the ring window triggers a deterministic replay from
///     round 0 (reset_generator() + re-synthesis).  Replays are counted in
///     rewinds() so tests and tools can assert the expected access
///     pattern; certification passes that need free random access should
///     materialize() first.
///
/// Derived classes implement synthesize_next()/reset_generator() and keep
/// ALL evolving state in their generator members: the base owns the ring
/// and the frontier.
class StreamingNetwork : public DynamicNetwork {
 public:
  /// The ring width W.  Engine and FaultyNetwork hold a round's graph
  /// reference only for that round, but a window of 2 keeps the previous
  /// round valid as well, which sliding-window consumers (and debuggers)
  /// rely on.
  static constexpr std::size_t kDefaultWindow = 2;

  std::size_t node_count() const override { return n_; }
  const Graph& graph_at(Round r) override;

  /// Nominal horizon Γ: rounds at or past it repeat the final round's
  /// graph (same convention as GraphSequence::graph_at).
  std::size_t round_count() const { return horizon_; }

  /// Ring capacity: kDefaultWindow, clamped to the horizon.
  std::size_t window() const { return ring_.size(); }

  /// Next round the generator would synthesise (realized rounds are
  /// exactly [frontier - min(frontier, W), frontier)).
  Round frontier() const { return frontier_; }

  /// Number of replays-from-zero forced by accesses behind the window.
  std::size_t rewinds() const { return rewinds_; }

 protected:
  /// `horizon` is the nominal trace length Γ (>= 1).
  StreamingNetwork(std::size_t nodes, std::size_t horizon);

  /// Produces the graph of round frontier() and advances the generator's
  /// internal state by exactly one round.  Called with strictly
  /// monotonically increasing rounds between reset_generator() calls.
  virtual Graph synthesize_next() = 0;

  /// Rewinds the generator to its pre-round-0 state (re-seeding RNG
  /// streams, resetting chain state) so synthesis can replay from the
  /// start.  Must reproduce the original draw sequence exactly.
  virtual void reset_generator() = 0;

 private:
  const Graph& ensure(Round r);

  std::size_t n_;
  std::size_t horizon_;
  Round frontier_ = 0;
  std::size_t rewinds_ = 0;
  std::vector<Graph> ring_;  ///< slot for round r is ring_[r % window()]
};

/// Default budget for materialize(): generous enough for every in-repo
/// experiment at n <= a few thousand, small enough that an accidental
/// freeze of an n=10^5 long-horizon trace fails with a diagnostic instead
/// of OOM-ing the host.
inline constexpr std::size_t kDefaultMaterializeBudget =
    std::size_t{4} * 1024 * 1024 * 1024;

/// Estimated resident bytes of one realized round graph (CSR offsets and
/// neighbour entries) — the unit of materialize()'s budget check.
std::size_t estimated_graph_bytes(std::size_t nodes, std::size_t edges);

/// Copies the first `rounds` rounds of `net` into an explicit trace.  Used
/// to freeze the *realized* topology of a lazy or decorated network (e.g. a
/// FaultyNetwork) so it can be replayed — by the assumption monitor, by a
/// hierarchy maintainer — without re-deriving it per query.
///
/// Freezing is the explicit opt-in back into O(Γ·n) residency, so it is
/// budget-guarded: if `rounds` times the estimated footprint of the first
/// realized round exceeds `byte_budget`, a PreconditionError explains the
/// estimate and points at the streaming alternative.  Pass a larger budget
/// to override deliberately.
GraphSequence materialize(DynamicNetwork& net, std::size_t rounds,
                          std::size_t byte_budget = kDefaultMaterializeBudget);

/// A static network presented through the dynamic interface (every round
/// is the same graph) — the degenerate case used by sanity tests.
class StaticNetwork final : public DynamicNetwork {
 public:
  explicit StaticNetwork(Graph g) : g_(std::move(g)) {}

  std::size_t node_count() const override { return g_.node_count(); }
  const Graph& graph_at(Round) override { return g_; }

 private:
  Graph g_;
};

/// Kuhn & Oshman's *dynamic diameter* of a round sequence: the smallest D
/// such that, from every start round within [0, rounds - D] and every
/// source, a "causal influence" flood started at the source reaches every
/// node within D rounds (one hop per round over whichever edges are
/// present).  Returns nullopt when no such D exists within the horizon.
std::optional<std::size_t> dynamic_diameter(DynamicNetwork& net,
                                            std::size_t rounds);

/// Causal-influence arrival times: round (relative to `start`) at which
/// each node is first causally influenced by `source` when flooding one
/// hop per round from `start`.  kNeverReached for nodes not reached within
/// `horizon` rounds.
inline constexpr std::size_t kNeverReached =
    std::numeric_limits<std::size_t>::max();
std::vector<std::size_t> causal_arrival(DynamicNetwork& net, NodeId source,
                                        Round start, std::size_t horizon);

}  // namespace hinet
