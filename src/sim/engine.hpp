// Synchronous round engine.
//
// Executes one Process per node over a DynamicNetwork (and optional
// HierarchyProvider) for up to max_rounds rounds:
//
//   for each round r:
//     1. collect transmit() from every unfinished node      (send step)
//     2. scatter each packet to its sender's G_r neighbours (delivery)
//     3. receive() per node; account costs; track completion
//
// Delivery is sender-centric and zero-copy: the engine walks the round's
// packet list once, pushing a PacketView into each CSR neighbour's inbox
// index list (a counting-sort over receivers — O(Σ deg(sender)) instead
// of the receiver-centric O(n · packets) edge probing, with no per-packet
// TokenSet copies).  Because packets are collected in sender order and the
// scatter is stable, every inbox stays sorted by sender id — the ordering
// the determinism guarantee and the algorithms' tie-breaking rely on.
// Channel filtering runs receiver-major over the prebuilt lists, which
// preserves the exact deliver() call order (and hence RNG draw order) of
// the receiver-centric engine: a (trace, seed) pair reproduces
// byte-identical metrics across engine generations.
//
// Completion is tracked incrementally: knowledge is monotone and grows
// only in receive() (see Process), so each node is checked once per round
// with an O(1) TokenSet::full() and never re-scanned once complete.
//
// All per-round scratch (packet buffer, inbox offsets / cursors / view
// lists) is hoisted out of the round loop and reused: the packet buffer
// holds n packets from start(), and the view array grows only when a
// round's graph has more arcs than any before.  With k <= 128 a packet's
// TokenSet holds its words inline, so the built-in processes' transmit and
// receive allocate nothing either (network coding's coefficient vectors
// are TokenSets too), and a steady-state round performs no heap allocation
// at all (tests/sim/test_engine_allocations.cpp counts them).
//
// Execution is round-granular: run() is start() + step()-until-done +
// finish().  The three stages stay public so a benchmark can time each
// round; every program runs whole replicates through run().  A killed
// sweep or service job resumes from its journal, which records whole
// replicates, so the engine keeps no checkpoint of a run in flight.
//
// Two ownership modes:
//   - spec-owning (preferred): Engine(SimulationSpec) takes the whole run
//     — network, hierarchy, channel, processes, config — so the engine's
//     lifetime alone keeps every dependency alive;
//   - borrowing: Engine(net, hierarchy, processes) references
//     caller-owned topology, for unit tests and tools that inspect the
//     trace after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"
#include "sim/channel.hpp"
#include "sim/spec.hpp"

namespace hinet {

/// Thrown by step() when EngineConfig::deadline_ms elapses before the run
/// finishes.  The run is abandoned, never resumed: a deadline is a
/// supervision boundary, and a retry re-runs the replicate from its seed.
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Observer invoked after each round with a view of that round's packets
/// (valid only during the call); used by trace recording and the
/// walkthrough bench.  Return value ignored.
using RoundObserver = std::function<void(Round, std::span<const Packet>,
                                         const Graph&, const HierarchyView&)>;

class Engine {
 public:
  /// Spec-owning mode: consumes the spec; the engine owns every part of
  /// the run.  The spec's channel (if any) is installed automatically.
  explicit Engine(SimulationSpec spec);

  /// Borrowing mode: `net` (and `hierarchy`, which may be null for flat
  /// algorithms) must outlive the engine; the caller keeps ownership.
  Engine(DynamicNetwork& net, HierarchyProvider* hierarchy,
         std::vector<ProcessPtr> processes);

  /// Runs the simulation: start(cfg), step() until done, finish().
  /// Single-shot: a second run on the same engine is a hard
  /// PreconditionError (processes hold consumed per-run state, so
  /// re-running would silently measure garbage).
  SimMetrics run(const EngineConfig& cfg);

  /// Spec-owning mode only: runs with the owned spec's engine config.
  SimMetrics run();

  /// Begins a run.  PreconditionError if a run already started.
  void start(const EngineConfig& cfg);

  /// Executes one round.  Returns true while more rounds remain (schedule
  /// not exhausted and, with stop_when_complete, dissemination not yet
  /// complete).  Throws DeadlineError when the config's wall-clock budget
  /// is exhausted.
  bool step();

  /// Finalizes and returns the run's metrics; the engine is spent after.
  SimMetrics finish();

  void set_observer(RoundObserver obs) { observer_ = std::move(obs); }

  /// Installs a failure-injecting channel; the engine does not own it.
  /// nullptr, the default, is perfect delivery (the paper's model).  A
  /// spec-owning engine installs (and owns) its spec's channel instead.
  void set_channel(ChannelModel* channel) { channel_ = channel; }

  const Process& process(NodeId v) const { return *processes_[v]; }

 private:
  void validate() const;

  // Owned storage (spec-owning mode only; empty when borrowing).
  std::unique_ptr<DynamicNetwork> owned_network_;
  std::unique_ptr<HierarchyProvider> owned_hierarchy_;
  std::unique_ptr<ChannelModel> owned_channel_;
  EngineConfig owned_config_;
  bool owning_ = false;

  DynamicNetwork* net_;
  HierarchyProvider* hierarchy_;
  HierarchyView flat_view_;
  std::vector<ProcessPtr> processes_;
  RoundObserver observer_;
  ChannelModel* channel_ = nullptr;

  // Run state, valid between start() and finish().
  bool started_ = false;
  bool finished_ = false;
  EngineConfig cfg_;
  Round round_ = 0;
  SimMetrics metrics_;
  std::vector<char> complete_;
  std::size_t complete_nodes_ = 0;

  // Per-round scratch, reused round to round (clear()/assign() keep
  // capacity): the round's packets and the per-receiver inbox segments
  // (offsets, scatter cursors, flat view array).
  std::vector<Packet> packets_;
  std::vector<std::uint32_t> inbox_offsets_;
  std::vector<std::uint32_t> inbox_cursor_;
  std::vector<PacketView> inbox_views_;

  // Supervision deadline: over-budget runs throw, they never degrade, so
  // results stay a pure function of (spec, seed).
  // detlint-allow(banned-time): deadline only gates abort, never results
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace hinet
