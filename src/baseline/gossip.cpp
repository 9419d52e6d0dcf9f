#include "baseline/gossip.hpp"

namespace hinet {

GossipProcess::GossipProcess(NodeId self, TokenSet initial,
                             const GossipParams& params)
    : self_(self),
      params_(params),
      ta_(std::move(initial)),
      // Derive a decorrelated per-node stream from (seed, node id).
      rng_(params.seed ^ (0x9e3779b97f4a7c15ULL * (self + 1))) {
  HINET_REQUIRE(params_.k == ta_.universe(), "universe mismatch");
  HINET_REQUIRE(params_.rounds >= 1, "M must be >= 1");
}

bool GossipProcess::finished(const RoundContext& ctx) const {
  return ctx.round >= params_.rounds;
}

std::optional<Packet> GossipProcess::transmit(const RoundContext& ctx) {
  if (ta_.empty()) return std::nullopt;
  const auto neigh = ctx.neighbors();
  if (neigh.empty()) return std::nullopt;
  const NodeId target = neigh[rng_.below(neigh.size())];
  Packet pkt;
  pkt.src = self_;
  pkt.dest = target;
  if (params_.push_full_set) {
    pkt.tokens = ta_;
  } else {
    const TokenId pick = *ta_.nth(rng_.below(ta_.count()));
    pkt.tokens = TokenSet(params_.k, {pick});
  }
  return pkt;
}

void GossipProcess::receive(const RoundContext& ctx, InboxView inbox) {
  // Push gossip is addressed: only the chosen target consumes the payload.
  for (PacketView pkt : inbox) {
    if (pkt->dest == ctx.self || pkt->dest == kBroadcastDest) {
      ta_.unite(pkt->tokens);
    }
  }
}

std::vector<ProcessPtr> make_gossip_processes(
    const std::vector<TokenSet>& initial, const GossipParams& params) {
  return make_processes<GossipProcess>(initial, params);
}

}  // namespace hinet
