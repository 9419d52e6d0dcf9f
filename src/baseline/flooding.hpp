// Baumann et al.'s a-active (parsimonious) flooding, from the related-work
// flooding family of the paper's Section II: a node forwards a token only
// for the `a` rounds after first learning it, trading delivery latitude
// for communication.  Classic flooding — every node re-broadcasts all it
// knows every round — is KLO's token forwarding, KloFloodProcess
// (baseline/klo.hpp); an activity covering the whole schedule behaves
// exactly like it.
#pragma once

#include "sim/process.hpp"

namespace hinet {

struct FloodingParams {
  std::size_t k = 0;
  std::size_t rounds = 0;  ///< M: scheduled length
  /// a: how many rounds a token stays active (re-broadcast) after a node
  /// first learns it; must be >= 1.
  std::size_t activity = 0;
};

class FloodingProcess final : public Process {
 public:
  FloodingProcess(NodeId self, TokenSet initial, const FloodingParams& params);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  const TokenSet& knowledge() const override { return ta_; }
  bool finished(const RoundContext& ctx) const override;

 private:
  NodeId self_;
  FloodingParams params_;
  TokenSet ta_;
  /// Round at which each known token was learned (kNever = unknown).
  std::vector<std::size_t> learned_at_;
};

std::vector<ProcessPtr> make_flooding_processes(
    const std::vector<TokenSet>& initial, const FloodingParams& params);

}  // namespace hinet
