#include "core/alg_dhop.hpp"

namespace hinet {

DhopProcess::DhopProcess(NodeId self, TokenSet initial,
                         const DhopParams& params,
                         const RoutingSequence& routing)
    : self_(self),
      params_(params),
      routing_(routing),
      ta_(std::move(initial)),
      last_broadcast_(ta_.universe()),
      uploaded_(ta_.universe()) {
  HINET_REQUIRE(params_.k == ta_.universe(), "universe mismatch");
  HINET_REQUIRE(params_.rounds >= 1, "M must be >= 1");
}

bool DhopProcess::finished(const RoundContext& ctx) const {
  return ctx.round >= params_.rounds;
}

std::optional<Packet> DhopProcess::transmit(const RoundContext& ctx) {
  const ClusterRouting& routing = routing_.routing_at(ctx.round);
  const bool internal = ctx.role() == NodeRole::kHead ||
                        !routing.children[self_].empty();

  if (internal) {
    const bool changed = !ta_.subset_of(last_broadcast_);
    if ((changed || !ever_broadcast_) && !ta_.empty()) {
      last_broadcast_ = ta_;
      ever_broadcast_ = true;
      Packet pkt;
      pkt.src = self_;
      pkt.dest = kBroadcastDest;
      pkt.tokens = ta_;
      return pkt;
    }
    return std::nullopt;
  }

  // Leaf: delta upload towards the parent.
  if (!routing.has_parent(self_)) return std::nullopt;
  TokenSet delta = ta_;
  delta.subtract(uploaded_);
  if (delta.empty()) return std::nullopt;
  uploaded_.unite(delta);
  Packet pkt;
  pkt.src = self_;
  pkt.dest = routing.parent[self_];
  pkt.tokens = std::move(delta);
  return pkt;
}

void DhopProcess::receive(const RoundContext&, InboxView inbox) {
  for (PacketView pkt : inbox) ta_.unite(pkt->tokens);
}

std::vector<ProcessPtr> make_dhop_processes(
    const std::vector<TokenSet>& initial, const DhopParams& params,
    const RoutingSequence& routing) {
  return make_processes<DhopProcess>(initial, params, routing);
}

}  // namespace hinet
