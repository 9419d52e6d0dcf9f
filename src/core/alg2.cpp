#include "core/alg2.hpp"

namespace hinet {

Alg2Process::Alg2Process(NodeId self, TokenSet initial,
                         const Alg2Params& params)
    : self_(self),
      params_(params),
      ta_(std::move(initial)),
      echoed_(ta_.universe()) {
  HINET_REQUIRE(params_.k == ta_.universe(), "universe mismatch");
  HINET_REQUIRE(params_.rounds >= 1, "M must be >= 1");
}

bool Alg2Process::finished(const RoundContext& ctx) const {
  if (ctx.round >= params_.rounds) return true;
  return params_.quiescence_rounds > 0 &&
         quiet_rounds_ >= params_.quiescence_rounds;
}

std::optional<Packet> Alg2Process::transmit(const RoundContext& ctx) {
  switch (ctx.role()) {
    case NodeRole::kHead:
    case NodeRole::kGateway: {
      if (ta_.empty()) return std::nullopt;  // an empty TA carries nothing
      Packet pkt;
      pkt.src = self_;
      pkt.dest = kBroadcastDest;
      pkt.tokens = ta_;
      return pkt;
    }
    case NodeRole::kMember: {
      const ClusterId head = ctx.cluster();
      const bool head_changed = head != last_seen_head_;
      last_seen_head_ = head;
      if (head == kNoCluster) return std::nullopt;
      // Upload on first affiliation and on every re-affiliation; the
      // loss-tolerant variant also re-uploads periodically while some own
      // token has not been echoed back by any head/gateway.
      const bool reupload_due =
          params_.member_reupload_interval > 0 && ctx.round > 0 &&
          ctx.round % params_.member_reupload_interval == 0 &&
          !ta_.subset_of(echoed_);
      const bool must_send = !sent_initial_ || head_changed || reupload_due;
      if (!must_send) return std::nullopt;
      sent_initial_ = true;
      if (ta_.empty()) return std::nullopt;
      ++member_uploads_;
      Packet pkt;
      pkt.src = self_;
      pkt.dest = head;
      pkt.tokens = ta_;
      return pkt;
    }
  }
  return std::nullopt;
}

void Alg2Process::receive(const RoundContext& ctx, InboxView inbox) {
  // Fig. 5: every role unions everything heard ("receive S1,...,St from
  // neighbors; TA <- TA ∪ S1 ∪ ... ∪ St").
  std::size_t learned = 0;
  for (PacketView pkt : inbox) {
    learned += ta_.unite(pkt->tokens);
    // ACK bookkeeping for the loss-tolerant variant: a head/gateway
    // broadcast proves the backbone holds those tokens.
    if (params_.member_reupload_interval > 0 &&
        ctx.hierarchy->role(pkt->src) != NodeRole::kMember) {
      echoed_.unite(pkt->tokens);
    }
  }
  if (learned == 0) {
    ++quiet_rounds_;
  } else {
    quiet_rounds_ = 0;
  }
}

std::vector<ProcessPtr> make_alg2_processes(
    const std::vector<TokenSet>& initial, const Alg2Params& params) {
  return make_processes<Alg2Process>(initial, params);
}

}  // namespace hinet
