// Algorithm 2: k-token dissemination in (1, L)-HiNet (Fig. 5).
//
// Built for the weakest stability setting: the hierarchy may change every
// round.  The price is full-set packets:
//   member   — sends its entire TA to its cluster head in round 0 and
//              again whenever its cluster head changes; otherwise silent.
//   head/gw  — broadcasts its entire TA every round.
//   everyone — unions every token set heard into TA.
//
// Termination bounds proved in the paper:
//   Theorem 2: M >= n0 - 1 rounds under plain 1-interval connectivity.
//   Theorem 3: M >= ⌈θ/α⌉ + 1 rounds with (α·L)-interval head connectivity.
//   Theorem 4: M >= θ·L + 1 rounds with L-interval stable hierarchy.
#pragma once

#include "sim/process.hpp"

namespace hinet {

struct Alg2Params {
  std::size_t k = 0;       ///< token universe size
  std::size_t rounds = 0;  ///< M (choose per Theorem 2/3/4)

  /// Adaptive quiescence: when > 0, a node goes silent after this many
  /// consecutive rounds without learning a new token (and wakes up if
  /// something new arrives).  0 = run the full M-round schedule.
  std::size_t quiescence_rounds = 0;

  /// Loss tolerance: Fig. 5 has a member upload its TA exactly once per
  /// affiliation, so one lost upload orphans that member's tokens for as
  /// long as the head stays the same.  When > 0, a member whose TA is not
  /// yet covered by what it has heard from the backbone (heads/gateways
  /// double as acknowledgers — anything they broadcast they provably
  /// hold) re-uploads every this-many rounds.  0 = the paper's schedule
  /// (bit-identical default).
  std::size_t member_reupload_interval = 0;
};

class Alg2Process final : public Process {
 public:
  Alg2Process(NodeId self, TokenSet initial, const Alg2Params& params);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  const TokenSet& knowledge() const override { return ta_; }
  bool finished(const RoundContext& ctx) const override;

  /// Number of uploads this member performed (1 + re-affiliation sends);
  /// drives the measured n_m · n_r cost audit.
  std::size_t member_uploads() const { return member_uploads_; }

 private:
  NodeId self_;
  Alg2Params params_;
  TokenSet ta_;
  TokenSet echoed_;  ///< tokens heard from heads/gateways (implicit ACKs)
  ClusterId last_seen_head_ = kNoCluster;
  bool sent_initial_ = false;
  std::size_t member_uploads_ = 0;
  std::size_t quiet_rounds_ = 0;
};

std::vector<ProcessPtr> make_alg2_processes(
    const std::vector<TokenSet>& initial, const Alg2Params& params);

}  // namespace hinet
