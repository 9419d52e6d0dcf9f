// Multi-hop cluster dissemination — an executable answer to the paper's
// Section VI future-work question ("how to handle multi-hop clusters").
//
// With d-hop clusters a member cannot hand its tokens to the head in one
// hop; this algorithm runs over the intra-cluster BFS trees of
// cluster/routing.hpp:
//
//   - tree-internal nodes (heads and any node with tree children)
//     broadcast their full TA whenever it grew since their last broadcast
//     — one transmission serves the parent and all children at once;
//   - tree leaves send only the *delta* TA \ uploaded to their parent,
//     keeping the cheap-member property that motivates the hierarchy;
//   - everyone unions everything heard (the Fig. 5 rule).
//
// On a stable hierarchy the change-triggered broadcasts quiesce by
// themselves once dissemination completes.
#pragma once

#include "cluster/routing.hpp"
#include "sim/process.hpp"

namespace hinet {

struct DhopParams {
  std::size_t k = 0;
  std::size_t rounds = 0;  ///< schedule length
};

class DhopProcess final : public Process {
 public:
  DhopProcess(NodeId self, TokenSet initial, const DhopParams& params,
              const RoutingSequence& routing);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  const TokenSet& knowledge() const override { return ta_; }
  bool finished(const RoundContext& ctx) const override;

 private:
  NodeId self_;
  DhopParams params_;
  const RoutingSequence& routing_;
  TokenSet ta_;
  TokenSet last_broadcast_;  ///< TA as of our last full broadcast
  TokenSet uploaded_;        ///< tokens already sent to a parent
  bool ever_broadcast_ = false;
};

/// The processes keep a reference to `routing`, which must outlive them.
std::vector<ProcessPtr> make_dhop_processes(
    const std::vector<TokenSet>& initial, const DhopParams& params,
    const RoutingSequence& routing);

}  // namespace hinet
