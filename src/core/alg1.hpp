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

  /// Adaptive quiescence (the paper's "a cluster head can stop
  /// broadcasting t after a specific number of time intervals", taken
  /// adaptively): when > 0, a node goes silent after this many consecutive
  /// completed phases without learning a new token, and wakes up again if
  /// something new arrives.  0 = run the full M-phase schedule (the
  /// provably correct default); quiescence trades a small delivery risk
  /// for cost, measured by the robustness bench.
  std::size_t quiescence_phases = 0;

  // Loss-tolerance knobs.  The paper assumes perfect local broadcast, so
  // Fig. 4 sends every token exactly once per phase; one lost packet then
  // silences that token for the rest of the phase.  All three default to
  // the paper-faithful behaviour (engine goldens are bit-identical).

  /// Bounded retransmission: once a node has swept its whole backlog
  /// (TA \ TS, resp. TA \ (TS∪TR), is empty) it may restart the sweep up
  /// to this many times within the same phase instead of going silent.
  /// 0 = single sweep, the paper's schedule.
  std::size_t retransmit_budget = 0;

  /// ACK piggybacking for member resends: a head's own broadcasts double
  /// as acknowledgements (TR holds exactly the tokens the head provably
  /// has), so a resend sweep re-uploads only TA \ TR.  When false the
  /// resend sweep is blind — it forgets TR and re-uploads all of TA.
  /// Only affects rounds spent from retransmit_budget.
  bool ack_piggyback = false;

  /// Remark 1 weakening for churn: with stable_head_optimisation on, a
  /// member that re-affiliates to a *different* head after the first phase
  /// uploads again for that phase (the remark's "no re-send" reasoning
  /// needs the head set stable forever; under crash/recovery the new head
  /// may have missed the member's tokens entirely).
  bool reupload_on_reaffiliation = false;
};

class Alg1Process final : public Process {
 public:
  Alg1Process(NodeId self, TokenSet initial, const Alg1Params& params);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  const TokenSet& knowledge() const override { return ta_; }
  bool finished(const RoundContext& ctx) const override;

  /// Introspection for tests.
  const TokenSet& sent_set() const { return ts_; }
  const TokenSet& received_from_head_set() const { return tr_; }
  std::size_t resend_sweeps() const { return resend_sweeps_; }

 private:
  void maybe_start_phase(const RoundContext& ctx);

  NodeId self_;
  Alg1Params params_;
  TokenSet ta_, ts_, tr_;
  ClusterId head_in_prev_phase_ = kNoCluster;
  Round next_phase_start_ = 0;
  std::size_t ta_at_phase_start_ = 0;
  std::size_t quiet_phases_ = 0;
  std::size_t resend_sweeps_ = 0;  ///< retransmit budget spent this phase
  bool reaffiliated_ = false;      ///< head changed at this phase boundary
};

/// Builds one Alg1Process per node.  `initial[v]` is node v's input token
/// set; all sets must share universe params.k.
std::vector<ProcessPtr> make_alg1_processes(
    const std::vector<TokenSet>& initial, const Alg1Params& params);

/// Total scheduled rounds (M * T) — the engine's max_rounds for a full run.
std::size_t alg1_scheduled_rounds(const Alg1Params& params);

}  // namespace hinet
