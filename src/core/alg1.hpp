// Algorithm 1: k-token dissemination in (T, L)-HiNet (Fig. 4), plus the
// Remark 1 optimisation for an ∞-interval stable cluster-head set.
//
// Execution is divided into M phases of T rounds.  Per-node state is the
// paper's three token sets:
//   TA — every token collected;
//   TS — tokens sent by this node in the current phase (heads/gateways) or
//        towards the current head (members);
//   TR — tokens received from the current cluster head (members only).
//
// Per-round behaviour, by role in the current round's hierarchy:
//   member   — if TA ≠ TS ∪ TR, send t = max(TA \ (TS∪TR)) to the cluster
//              head and add it to TS; accept only tokens whose sender is
//              the current cluster head (into TA and TR).
//   head/gw  — if TS ≠ TA, broadcast t = min(TA \ TS) and add it to TS;
//              accept every token heard.
// At a phase boundary: heads/gateways clear TS; a member clears TS and TR
// iff its cluster head changed since the previous phase.
//
// Theorem 1: with T >= k + α·L on a (T, L)-HiNet, all nodes hold all k
// tokens after M >= ⌈θ/α⌉ + 1 phases.
//
// Remark 1 (stable_head_optimisation): when the head set never changes,
// members upload only during the first phase — re-affiliated members need
// not re-send because every head already learned their tokens — and
// M = ⌈|V_h|/α⌉ + 1 phases suffice.
#pragma once

#include "core/cost_model.hpp"
#include "sim/process.hpp"

namespace hinet {

struct Alg1Params {
  std::size_t k = 0;             ///< token universe size
  std::size_t phase_length = 0;  ///< T (Theorem 1 needs T >= k + αL)
  std::size_t phases = 0;        ///< M (Theorem 1 needs M >= ⌈θ/α⌉ + 1)
  bool stable_head_optimisation = false;  ///< Remark 1 member behaviour

  /// Bounded retransmission, a loss-tolerance knob.  The paper assumes
  /// perfect local broadcast, so Fig. 4 sends every token exactly once per
  /// phase; one lost packet then silences that token for the rest of the
  /// phase.  Once a node has swept its whole backlog (TA \ TS, resp.
  /// TA \ (TS∪TR), is empty) it may restart the sweep up to this many
  /// times within the same phase instead of going silent.  A member's
  /// resend is ACK-aware: a head's own broadcasts double as
  /// acknowledgements (TR holds exactly the tokens the head provably has),
  /// so it re-uploads only TA \ TR.  0 = single sweep, the paper's
  /// schedule, which the engine goldens pin.
  std::size_t retransmit_budget = 0;
};

class Alg1Process final : public Process {
 public:
  Alg1Process(NodeId self, TokenSet initial, const Alg1Params& params);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  const TokenSet& knowledge() const override { return ta_; }
  bool finished(const RoundContext& ctx) const override;

  /// Resend sweeps spent this phase (introspection for tests).
  std::size_t resend_sweeps() const { return resend_sweeps_; }

 private:
  void maybe_start_phase(const RoundContext& ctx);

  NodeId self_;
  Alg1Params params_;
  TokenSet ta_, ts_, tr_;
  ClusterId head_in_prev_phase_ = kNoCluster;
  Round next_phase_start_ = 0;
  std::size_t resend_sweeps_ = 0;  ///< retransmit budget spent this phase
};

/// Builds one Alg1Process per node.  `initial[v]` is node v's input token
/// set; all sets must share universe params.k.
std::vector<ProcessPtr> make_alg1_processes(
    const std::vector<TokenSet>& initial, const Alg1Params& params);

/// Total scheduled rounds (M * T) — the engine's max_rounds for a full run.
std::size_t alg1_scheduled_rounds(const Alg1Params& params);

}  // namespace hinet
