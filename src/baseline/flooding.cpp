#include "baseline/flooding.hpp"

#include <bit>

#include "sim/metrics.hpp"

namespace hinet {

FloodingProcess::FloodingProcess(NodeId self, TokenSet initial,
                                 const FloodingParams& params)
    : self_(self),
      params_(params),
      ta_(std::move(initial)),
      learned_at_(params.k, kNever) {
  HINET_REQUIRE(params_.k == ta_.universe(), "universe mismatch");
  HINET_REQUIRE(params_.rounds >= 1, "M must be >= 1");
  HINET_REQUIRE(params_.activity >= 1, "activity must be >= 1");
  for (TokenId t : ta_.to_vector()) learned_at_[t] = 0;
}

bool FloodingProcess::finished(const RoundContext& ctx) const {
  return ctx.round >= params_.rounds;
}

std::optional<Packet> FloodingProcess::transmit(const RoundContext& ctx) {
  TokenSet active(params_.k);
  for (TokenId t = 0; t < params_.k; ++t) {
    // A token heard in round r counts from r + 1, so learned_at_[t] <=
    // ctx.round and the difference cannot wrap, whatever the activity.
    if (learned_at_[t] != kNever &&
        ctx.round - learned_at_[t] < params_.activity) {
      active.insert(t);
    }
  }
  if (active.empty()) return std::nullopt;
  Packet pkt;
  pkt.src = self_;
  pkt.dest = kBroadcastDest;
  pkt.tokens = std::move(active);
  return pkt;
}

void FloodingProcess::receive(const RoundContext& ctx, InboxView inbox) {
  for (PacketView pkt : inbox) {
    HINET_REQUIRE(pkt->tokens.universe() == ta_.universe(),
                  "universe mismatch");
    const auto heard = pkt->tokens.words();
    const auto known = ta_.words();
    for (std::size_t i = 0; i < heard.size(); ++i) {
      for (std::uint64_t fresh = heard[i] & ~known[i]; fresh != 0;
           fresh &= fresh - 1) {
        // Newly learned in round r: active for rounds r+1 .. r+activity.
        learned_at_[i * TokenSet::kBits +
                    static_cast<std::size_t>(std::countr_zero(fresh))] =
            ctx.round + 1;
      }
    }
    ta_.unite(pkt->tokens);
  }
}

std::vector<ProcessPtr> make_flooding_processes(
    const std::vector<TokenSet>& initial, const FloodingParams& params) {
  return make_processes<FloodingProcess>(initial, params);
}

}  // namespace hinet
