// Per-node algorithm interface for the synchronous round engine.
//
// Each round the engine calls, for every node: transmit() to obtain the
// node's (at most one) outgoing packet, then — after all transmissions of
// the round are collected — receive() with every packet heard over the
// round's communication graph.  This is exactly the send/receive round
// structure of the paper's lifetime Γ.
//
// The inbox is an InboxView: pointers into the engine's round packet
// buffer, sorted by sender id, valid only for the duration of the call.
// A process that wants to keep a payload must copy it (all the built-in
// algorithms just unite the TokenSet into their own state).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"
#include "sim/packet.hpp"

namespace hinet {

/// Everything a node may legitimately observe in one round: the global
/// round index and its own local neighbourhood/role.  Processes must not
/// inspect the graph beyond their own neighbourhood (distributed-algorithm
/// discipline); the full graph reference exists so helpers can read
/// neighbour lists without copying.
struct RoundContext {
  Round round = 0;
  NodeId self = 0;
  const Graph* graph = nullptr;
  const HierarchyView* hierarchy = nullptr;

  std::span<const NodeId> neighbors() const { return graph->neighbors(self); }
  NodeRole role() const { return hierarchy->role(self); }
  ClusterId cluster() const { return hierarchy->cluster_of(self); }
};

class Process {
 public:
  virtual ~Process() = default;

  /// The node's transmission for this round, or nullopt to stay silent.
  virtual std::optional<Packet> transmit(const RoundContext& ctx) = 0;

  /// Delivery of every packet heard this round (senders are graph
  /// neighbours of this node in ctx.graph), as non-owning views ordered by
  /// sender id.  Called every round, even with an empty inbox, so
  /// processes can keep per-round state (phase boundaries) consistent.
  virtual void receive(const RoundContext& ctx, InboxView inbox) = 0;

  /// The node's collected token set TA (the algorithm's output).
  ///
  /// Contract: knowledge is monotone — it may only grow, and only during
  /// receive().  The engine relies on this for incremental completion
  /// tracking: a node is checked for completeness right after its
  /// receive() call and never re-scanned once complete.
  virtual const TokenSet& knowledge() const = 0;

  /// True once the node's own schedule is exhausted (e.g. M phases done).
  /// The engine may keep running other nodes; a finished node simply stays
  /// silent.  Default: never finishes on its own.
  virtual bool finished(const RoundContext&) const { return false; }
};

using ProcessPtr = std::unique_ptr<Process>;

/// One process of type P per node: node v runs P(v, initial[v], args...).
/// Every algorithm's make_*_processes factory is this loop.
template <class P, class... Args>
std::vector<ProcessPtr> make_processes(const std::vector<TokenSet>& initial,
                                       const Args&... args) {
  std::vector<ProcessPtr> out;
  out.reserve(initial.size());
  for (NodeId v = 0; v < initial.size(); ++v) {
    out.push_back(std::make_unique<P>(v, initial[v], args...));
  }
  return out;
}

}  // namespace hinet
